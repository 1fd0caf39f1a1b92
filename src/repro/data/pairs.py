"""Linkage problem construction: datasets A and B with ground truth.

Following the paper's prototype (Section 6): dataset A holds ``n``
generated records; each record of A is chosen with probability
``match_probability`` (0.5 in the paper) to be perturbed under the active
scheme and placed in B; B is then filled with fresh, unrelated records
until it also holds ``n`` records.  The set of truly matching pairs ``M``
and the per-pair perturbation logs are retained for evaluation
(Figures 9-12 need PC/PQ/RR; Figure 11 needs the per-operation log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.data.draws import RawDraws
from repro.data.perturb import AppliedOperation, PerturbationScheme
from repro.data.schema import Dataset, dataset_from_rows


class DatasetGenerator(Protocol):
    """Structural type for dataset generators (NCVRGenerator, DBLPGenerator).

    ``generate_rows(n, seed)`` is the value rows of ``generate(n, seed)``.
    """

    def generate(
        self, n: int, seed: int | None = None, id_prefix: str = "N"
    ) -> Dataset: ...

    def generate_rows(self, n: int, seed: int | None = None) -> list[tuple[str, ...]]: ...


@dataclass
class LinkageProblem:
    """Two datasets plus ground truth.

    ``true_matches`` holds (row index in A, row index in B) pairs;
    ``operation_log`` maps each true pair to the perturbation operations
    that produced the B record.
    """

    dataset_a: Dataset
    dataset_b: Dataset
    true_matches: set[tuple[int, int]]
    operation_log: dict[tuple[int, int], tuple[AppliedOperation, ...]] = field(
        default_factory=dict
    )

    @property
    def n_true_matches(self) -> int:
        return len(self.true_matches)

    @property
    def comparison_space(self) -> int:
        """``|A x B|``, the denominator of the Reduction Ratio."""
        return len(self.dataset_a) * len(self.dataset_b)


def build_linkage_problem(
    generator: DatasetGenerator,
    n: int,
    scheme: PerturbationScheme,
    match_probability: float = 0.5,
    seed: int | None = None,
) -> LinkageProblem:
    """Generate a full linkage problem from a dataset generator.

    Parameters
    ----------
    generator:
        An object with ``generate(n, seed, id_prefix)`` returning a
        :class:`~repro.data.schema.Dataset` (NCVRGenerator/DBLPGenerator).
    n:
        Number of records in A (and in B).
    scheme:
        The perturbation scheme (PL or PH), or any object whose
        ``perturb(values, schema, rng)`` draws only through
        ``rng.random()`` and ``rng.integers(low, high)``.
    match_probability:
        Probability that a record of A gets a perturbed twin in B
        (the paper uses 0.5).
    seed:
        Master seed; A-generation, selection, perturbation and B-filler
        generation all derive from it.
    """
    if not 0.0 < match_probability <= 1.0:
        raise ValueError(f"match_probability must be in (0, 1], got {match_probability}")
    seed_seq = np.random.SeedSequence(seed)
    seed_a, seed_sel, seed_fill = seed_seq.spawn(3)

    dataset_a = generator.generate(n, seed=seed_a, id_prefix="A")
    schema = dataset_a.schema
    rows_a = dataset_a.value_rows()

    rng = np.random.default_rng(seed_sel)
    chosen = np.flatnonzero(rng.random(n) < match_probability).tolist()

    rows_b: list[tuple[str, ...]] = []
    operation_log: dict[tuple[int, int], tuple[AppliedOperation, ...]] = {}
    with RawDraws(rng) as draws:
        for row_b, row_a in enumerate(chosen):
            perturbed, log = scheme.perturb(rows_a[row_a], schema, draws)
            rows_b.append(perturbed)
            operation_log[row_a, row_b] = log

    n_fill = n - len(rows_b)
    if n_fill > 0:
        rows_b += generator.generate_rows(n_fill, seed=seed_fill)

    dataset_b = dataset_from_rows(schema, rows_b, "B", name=f"{dataset_a.name}-B")
    return LinkageProblem(
        dataset_a=dataset_a,
        dataset_b=dataset_b,
        true_matches=set(operation_log),
        operation_log=operation_log,
    )
