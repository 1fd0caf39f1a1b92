"""cBV-HB: the paper's end-to-end record linkage (Section 5).

The method is Charlie's job from Section 3:

1. **Calibrate** — sample strings per attribute, measure ``b^(f_i)``, size
   the c-vectors via Theorem 1 and draw the attribute hash functions.
2. **Embed** — encode both datasets into record-level c-vector matrices.
3. **Block** — either the standard record-level HB (Section 4.2) or the
   rule-aware attribute-level blocking (Section 5.4).
4. **Match** — Algorithm 2: de-duplicated candidate pairs, classified with
   a Hamming threshold or the rule AST over per-attribute distances.

:class:`CompactHammingLinker` runs steps 1-4 for dataset-vs-dataset
linkage, one call each.  The near-real-time setting motivating the
paper's introduction (insert records as they arrive, match each incoming
one at once) is :class:`repro.serve.QueryEngine`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.config import (
    CalibrationConfig,
    DEFAULT_DELTA,
    DEFAULT_K,
    PL_RECORD_THRESHOLD,
)
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.pipeline.result import LinkageResult as LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.rules.ast import Rule
from repro.rules.blocking import RuleAwareBlocker


class CompactHammingLinker:
    """The cBV-HB blocking/matching method.

    Construct via :meth:`record_level` (standard HB, one record-level
    threshold) or :meth:`rule_aware` (attribute-level blocking adapted to a
    classification rule), then call :meth:`link`.

    Examples
    --------
    >>> from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
    >>> problem = build_linkage_problem(NCVRGenerator(), 200, scheme_pl(), seed=7)
    >>> linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
    >>> result = linker.link(problem.dataset_a, problem.dataset_b)
    >>> result.n_matches > 0
    True
    """

    def __init__(
        self,
        threshold: int | None = None,
        rule: Rule | None = None,
        k: int | Mapping[str, int] = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        n_tables: int | None = None,
        calibration: CalibrationConfig | None = None,
        scheme: QGramScheme | None = None,
        attribute_names: Sequence[str] | None = None,
        seed: int | None = None,
    ):
        if (threshold is None) == (rule is None):
            raise ValueError("specify exactly one of threshold (record-level) or rule")
        if rule is not None and not isinstance(k, Mapping):
            raise ValueError("rule-aware blocking needs a per-attribute K mapping")
        if threshold is not None and isinstance(k, Mapping):
            raise ValueError("record-level blocking takes a single integer K")
        self.threshold = threshold
        self.rule = rule
        self.k = k
        self.delta = delta
        self.n_tables = n_tables
        self.calibration = calibration or CalibrationConfig()
        self.scheme = scheme
        self.attribute_names = list(attribute_names) if attribute_names else None
        self.seed = seed
        self.encoder: RecordEncoder | None = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def record_level(
        cls,
        threshold: int = PL_RECORD_THRESHOLD,
        k: int = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        n_tables: int | None = None,
        calibration: CalibrationConfig | None = None,
        scheme: QGramScheme | None = None,
        seed: int | None = None,
    ) -> "CompactHammingLinker":
        """Standard HB over the whole record-level c-vector (Section 4.2)."""
        return cls(
            threshold=threshold,
            k=k,
            delta=delta,
            n_tables=n_tables,
            calibration=calibration,
            scheme=scheme,
            seed=seed,
        )

    @classmethod
    def rule_aware(
        cls,
        rule: Rule,
        k: Mapping[str, int],
        delta: float = DEFAULT_DELTA,
        calibration: CalibrationConfig | None = None,
        scheme: QGramScheme | None = None,
        attribute_names: Sequence[str] | None = None,
        seed: int | None = None,
    ) -> "CompactHammingLinker":
        """Attribute-level blocking adapted to ``rule`` (Section 5.4).

        ``rule`` refers to attributes by the encoder's names (``f1..fn``
        by default, or ``attribute_names``).
        """
        return cls(
            rule=rule,
            k=dict(k),
            delta=delta,
            calibration=calibration,
            scheme=scheme,
            attribute_names=attribute_names,
            seed=seed,
        )

    # -- the four steps -----------------------------------------------------------

    def calibrate(
        self, *datasets: DatasetLike, rows: Sequence[list] | None = None
    ) -> RecordEncoder:
        """Step 1: size and draw the attribute encoders from data samples.

        Samples up to ``calibration.sample_size`` records from each dataset
        (Charlie samples "randomly and uniformly" in the paper) and fits
        one c-vector encoder per attribute.  ``rows`` is the datasets'
        value rows when the caller holds them already (:meth:`link` does).
        """
        sample: list[tuple[str, ...]] = []
        # Fall back to the linker seed so one seed fully determines the
        # link (sampling included), as the architecture doc promises.
        sample_seed = (
            self.calibration.seed if self.calibration.seed is not None else self.seed
        )
        rng = np.random.default_rng(sample_seed)
        per_dataset = max(1, self.calibration.sample_size // max(1, len(datasets)))
        for all_rows in map(value_rows, datasets) if rows is None else rows:
            if len(all_rows) <= per_dataset:
                sample.extend(all_rows)
            else:
                picks = rng.choice(len(all_rows), size=per_dataset, replace=False)
                sample.extend(all_rows[int(i)] for i in picks)
        scheme = self.scheme
        if scheme is None and datasets and hasattr(datasets[0], "schema"):
            scheme = datasets[0].schema[0].scheme
        self.encoder = RecordEncoder.calibrated(
            sample,
            names=self.attribute_names,
            scheme=scheme,
            rho=self.calibration.rho,
            r=self.calibration.r,
            seed=self.seed,
        )
        return self.encoder

    def _build_blocker(self, encoder: RecordEncoder) -> "RuleAwareBlocker | HammingLSH":
        if self.rule is not None:
            assert isinstance(self.k, Mapping)
            return RuleAwareBlocker(
                self.rule, encoder, k=self.k, delta=self.delta, seed=self.seed
            )
        assert isinstance(self.k, int)
        return HammingLSH(
            n_bits=encoder.total_bits,
            k=self.k,
            threshold=self.threshold,
            delta=self.delta,
            n_tables=self.n_tables,
            seed=self.seed,
        )

    def _embed(
        self,
        encoder: RecordEncoder,
        rows_a: Sequence[Sequence[str]],
        rows_b: Sequence[Sequence[str]],
        counters: dict[str, float],
    ) -> tuple[BitMatrix, BitMatrix]:
        """Step 2: both sides' interned embedding; the intern counters of the
        two passes land in ``counters`` summed."""
        stats_a: dict[str, float] = {}
        stats_b: dict[str, float] = {}
        matrix_a = encoder.encode_dataset(rows_a, stats=stats_a)
        matrix_b = encoder.encode_dataset(rows_b, stats=stats_b)
        values = stats_a["intern_values"] + stats_b["intern_values"]
        unique = stats_a["intern_unique"] + stats_b["intern_unique"]
        counters["intern_values"] = values
        counters["intern_unique"] = unique
        counters["intern_hit_rate"] = 1.0 - unique / values if values else 0.0
        return matrix_a, matrix_b

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """Calibrate (unless an encoder is set), embed, index A, match B.

        Either match is one call over bounded row blocks of B: the
        record-level one runs the threshold kernel (:meth:`HammingLSH.match`:
        per block one join, one de-dup, a blocked verify), the rule-aware one
        :meth:`RuleAwareBlocker.match` (per block the plan's joins and set
        algebra, then the lazy rule).  Matches come out in ``a * n_B + b``
        order.  Timings: ``"calibrate"`` (also when an encoder was set),
        ``"embed"``, ``"index"`` and ``"match"``.
        """
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        counters: dict[str, float] = {}
        with timed(timings, "calibrate"):
            encoder = self.encoder if self.encoder is not None else self.calibrate(
                dataset_a, dataset_b, rows=(rows_a, rows_b)
            )
        with timed(timings, "embed"):
            matrix_a, matrix_b = self._embed(encoder, rows_a, rows_b, counters)
        with timed(timings, "index"):
            blocker = self._build_blocker(encoder)
            blocker.index(matrix_a)
            counters["n_tables"] = float(
                blocker.total_tables if isinstance(blocker, RuleAwareBlocker) else blocker.n_tables
            )
        record_distances: np.ndarray | None = None
        attribute_distances: dict[str, np.ndarray] = {}
        with timed(timings, "match"):
            if isinstance(blocker, RuleAwareBlocker):
                out_a, out_b, attribute_distances = blocker.match(matrix_b, counters=counters)
            else:
                out_a, out_b, record_distances = blocker.match(
                    matrix_a, matrix_b, self.threshold, counters=counters
                )
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=int(counters["pairs_unique"]),
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            attribute_distances=attribute_distances,
            record_distances=record_distances,
            counters=counters,
        )

    def link_multiple(self, datasets: Sequence) -> dict[tuple[int, int], LinkageResult]:
        """Link every dataset pair ``(i, j), i < j`` with one shared encoder.

        Section 5.3 notes the method "is capable of handling an arbitrary
        number of data sets (two or more)"; the shared calibration keeps
        all embeddings in one comparable space.
        """
        if len(datasets) < 2:
            raise ValueError("need at least two datasets")
        if self.encoder is None:
            self.calibrate(*datasets)
        results: dict[tuple[int, int], LinkageResult] = {}
        for i in range(len(datasets)):
            for j in range(i + 1, len(datasets)):
                results[(i, j)] = self.link(datasets[i], datasets[j])
        return results

