"""The three-party linkage protocol of Section 3 (and the §7 outlook).

Two (or more) data custodians — Alice and Bob in the paper — agree on a
set of common attributes and enlist an independent party, Charlie, to
identify similar records.  The compact c-vectors make a privacy-leaning
variant natural (the paper's §7 points at [17, 19]): custodians *encode
locally* under a shared :class:`EncodingAgreement` and submit only record
identifiers plus bit vectors; Charlie never sees a raw string.

This module also hosts the shared *dataset* protocol — the structural
types every linker's ``link()`` accepts (:class:`SupportsValueRows`,
``DatasetLike``, :func:`value_rows`).

Beyond that, the module is an architectural wrapper over :mod:`repro.core`:

* :class:`EncodingAgreement` — the public parameters both custodians need
  (seed, q-gram scheme, Theorem 1 inputs, per-attribute average q-gram
  counts).  Two custodians holding the same agreement derive bit-identical
  encoders.
* :class:`DataCustodian` — owns a dataset; encodes it into an
  :class:`EncodedDataset` (ids + packed c-vector matrix, nothing else).
* :class:`LinkageUnit` — Charlie; blocks and matches encoded datasets with
  record-level HB or rule-aware blocking and returns matched id pairs.

Note: like the Bloom-filter PPRL literature the paper builds on, this is
*pseudonymisation*, not cryptographic privacy — c-vectors still leak
q-gram information to a motivated adversary.  See the paper's §7 for the
secure-matching protocols this structure plugs into.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol, Union

import numpy as np


# -- dataset structural types ---------------------------------------------------
#
# Defined *before* the repro.core imports below: repro.core.linker imports
# these names from this module, so they must exist even when this module is
# re-entered mid-initialisation through the repro.core package.


class SupportsValueRows(Protocol):
    """Structural type for dataset inputs: anything with ``value_rows()``."""

    def value_rows(self) -> list[tuple[str, ...]]: ...


#: What every linker accepts: a :class:`repro.data.schema.Dataset`-like
#: object or a plain sequence of attribute-value rows.
DatasetLike = Union[SupportsValueRows, Sequence[Sequence[str]]]


def value_rows(dataset: DatasetLike) -> list[tuple[str, ...]]:
    """Normalise a Dataset or a plain sequence into value-row tuples."""
    if hasattr(dataset, "value_rows"):
        return dataset.value_rows()
    return [tuple(row) for row in dataset]


from repro.core.config import DEFAULT_DELTA, DEFAULT_K  # noqa: E402
from repro.core.cvector import CVectorEncoder, UniversalHash  # noqa: E402
from repro.core.encoder import RecordEncoder  # noqa: E402
from repro.core.qgram import QGramScheme  # noqa: E402
from repro.core.sizing import (  # noqa: E402
    DEFAULT_CONFIDENCE_R,
    DEFAULT_RHO,
    optimal_cvector_size,
)
from repro.data.schema import Dataset  # noqa: E402
from repro.hamming.bitmatrix import BitMatrix  # noqa: E402
from repro.hamming.lsh import HammingLSH  # noqa: E402
from repro.rules.ast import Rule  # noqa: E402
from repro.rules.blocking import RuleAwareBlocker  # noqa: E402
from repro.text.alphabet import TEXT_ALPHABET  # noqa: E402


@dataclass(frozen=True)
class EncodingAgreement:
    """Public parameters shared by all custodians.

    ``qgram_counts`` are the agreed per-attribute average q-gram counts
    ``b^(f_i)`` (aggregate statistics only — no record values).  The
    ``seed`` fixes the attribute hash functions so every custodian embeds
    into the *same* compact space.
    """

    attribute_names: tuple[str, ...]
    qgram_counts: tuple[float, ...]
    seed: int
    rho: float = DEFAULT_RHO
    r: float = DEFAULT_CONFIDENCE_R
    scheme: QGramScheme = field(
        default_factory=lambda: QGramScheme(alphabet=TEXT_ALPHABET)
    )

    def __post_init__(self) -> None:
        if len(self.attribute_names) != len(self.qgram_counts):
            raise ValueError(
                f"{len(self.attribute_names)} attribute names for "
                f"{len(self.qgram_counts)} q-gram counts"
            )
        if not self.attribute_names:
            raise ValueError("agreement needs at least one attribute")

    @property
    def widths(self) -> tuple[int, ...]:
        """Per-attribute c-vector sizes from Theorem 1."""
        return tuple(
            optimal_cvector_size(b, self.rho, self.r) for b in self.qgram_counts
        )

    @property
    def total_bits(self) -> int:
        return sum(self.widths)

    def build_encoder(self) -> RecordEncoder:
        """Derive the (deterministic) shared record encoder."""
        seeds = np.random.SeedSequence(self.seed).spawn(len(self.attribute_names))
        encoders = []
        for width, attr_seed in zip(self.widths, seeds):
            rng = np.random.default_rng(attr_seed)
            encoders.append(
                CVectorEncoder(
                    width, scheme=self.scheme, hash_fn=UniversalHash.random(width, rng)
                )
            )
        return RecordEncoder(encoders, names=list(self.attribute_names))

    @classmethod
    def negotiate(
        cls,
        datasets: Sequence[Dataset],
        seed: int,
        rho: float = DEFAULT_RHO,
        r: float = DEFAULT_CONFIDENCE_R,
    ) -> "EncodingAgreement":
        """Agree on parameters from the custodians' aggregate statistics.

        Each custodian contributes only its per-attribute average q-gram
        count; the agreement averages them (weighted by dataset size).
        """
        if not datasets:
            raise ValueError("need at least one dataset to negotiate")
        names = datasets[0].schema.names
        scheme = datasets[0].schema[0].scheme
        for dataset in datasets[1:]:
            if dataset.schema.names != names:
                raise ValueError(
                    f"custodian schemas disagree: {dataset.schema.names} vs {names}"
                )
        totals = np.zeros(len(names))
        count = 0
        for dataset in datasets:
            for __, values in dataset:
                for i, value in enumerate(values):
                    totals[i] += scheme.count(value)
            count += len(dataset)
        return cls(
            attribute_names=tuple(names),
            qgram_counts=tuple(float(t / count) for t in totals),
            seed=seed,
            rho=rho,
            r=r,
            scheme=scheme,
        )


@dataclass(frozen=True)
class EncodedDataset:
    """What a custodian submits to Charlie: ids and c-vectors only."""

    custodian: str
    record_ids: tuple[str, ...]
    matrix: BitMatrix

    def __post_init__(self) -> None:
        if len(self.record_ids) != self.matrix.n_rows:
            raise ValueError(
                f"{len(self.record_ids)} ids for {self.matrix.n_rows} vectors"
            )

    def __len__(self) -> int:
        return len(self.record_ids)


class DataCustodian:
    """A data owner: encodes its records locally under the agreement."""

    def __init__(self, name: str, dataset: Dataset):
        if not name:
            raise ValueError("custodian needs a name")
        self.name = name
        self.dataset = dataset

    def average_qgram_counts(self, scheme: QGramScheme) -> list[float]:
        """Aggregate statistics shared during negotiation."""
        totals = [0.0] * self.dataset.schema.n_attributes
        for __, values in self.dataset:
            for i, value in enumerate(values):
                totals[i] += scheme.count(value)
        return [t / len(self.dataset) for t in totals]

    def encode(self, agreement: EncodingAgreement) -> EncodedDataset:
        """Embed the records; only ids and bit vectors leave the custodian."""
        if self.dataset.schema.names != agreement.attribute_names:
            raise ValueError(
                f"dataset attributes {self.dataset.schema.names} do not match "
                f"agreement {agreement.attribute_names}"
            )
        encoder = agreement.build_encoder()
        matrix = encoder.encode_dataset(self.dataset.value_rows())
        return EncodedDataset(
            custodian=self.name,
            record_ids=tuple(self.dataset.ids),
            matrix=matrix,
        )


class LinkageUnit:
    """Charlie: blocks and matches encoded datasets, never raw strings."""

    def __init__(
        self,
        agreement: EncodingAgreement,
        threshold: int | None = None,
        rule: Rule | None = None,
        k: int | Mapping[str, int] = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        seed: int | None = None,
    ):
        if (threshold is None) == (rule is None):
            raise ValueError("specify exactly one of threshold or rule")
        self.agreement = agreement
        self.threshold = threshold
        self.rule = rule
        self.k = k
        self.delta = delta
        self.seed = seed
        # Charlie rebuilds the layout (widths are public) but never needs
        # the raw attribute values.
        self._encoder = agreement.build_encoder()

    def link(
        self, encoded_a: EncodedDataset, encoded_b: EncodedDataset
    ) -> list[tuple[str, str]]:
        """Matched (id_a, id_b) pairs between two encoded datasets."""
        if encoded_a.matrix.n_bits != self.agreement.total_bits:
            raise ValueError("encoded dataset A does not match the agreement's layout")
        if encoded_b.matrix.n_bits != self.agreement.total_bits:
            raise ValueError("encoded dataset B does not match the agreement's layout")
        if self.rule is not None:
            if not isinstance(self.k, Mapping):
                raise ValueError("rule-based linkage needs a per-attribute K mapping")
            blocker = RuleAwareBlocker(
                self.rule, self._encoder, k=self.k, delta=self.delta, seed=self.seed
            )
            blocker.index(encoded_a.matrix)
            rows_a, rows_b, __ = blocker.match(encoded_b.matrix)
        else:
            if not isinstance(self.k, int):
                raise ValueError("threshold-based linkage takes a single integer K")
            lsh = HammingLSH(
                n_bits=self.agreement.total_bits,
                k=self.k,
                threshold=self.threshold,
                delta=self.delta,
                seed=self.seed,
            )
            lsh.index(encoded_a.matrix)
            rows_a, rows_b, __ = lsh.match(encoded_a.matrix.words, encoded_b.matrix)
        return [
            (encoded_a.record_ids[int(a)], encoded_b.record_ids[int(b)])
            for a, b in zip(rows_a, rows_b)
        ]

    def link_all(
        self, encoded: Sequence[EncodedDataset]
    ) -> dict[tuple[str, str], list[tuple[str, str]]]:
        """Pairwise linkage across an arbitrary number of custodians."""
        if len(encoded) < 2:
            raise ValueError("need at least two encoded datasets")
        out: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for i in range(len(encoded)):
            for j in range(i + 1, len(encoded)):
                out[(encoded[i].custodian, encoded[j].custodian)] = self.link(
                    encoded[i], encoded[j]
                )
        return out
