"""BfH baseline [17]: Hamming LSH blocking over Bloom filter embeddings.

Records are embedded into concatenated field-level Bloom filters
(500 bits / 15 hash functions per bigram, Section 6.1) and blocked with
the same HB mechanism as cBV-HB (K = 30, delta = 0.1).  The attribute-level
thresholds (45 / 45 / 90 in the paper) are applied *only during the
matching step*; the blocking threshold over the record-level filter is
their sum, which is the distance a record pair just inside all
attribute thresholds can reach.

``link`` is a Bloom embedding, ``HammingLSH`` blocking and the shared
attribute-threshold match
(:func:`~repro.hamming.distance.verify_attribute_pairs`) over the Bloom
encoder's masked per-attribute distances.

The paper's criticism of this space — distances depend on the *lengths*
of the original strings, not only on the number of errors — is observable
here: see ``tests/test_bfh.py`` for the 'JOHN'/'JAHN' vs
'SCALABILITY'/'SCELABILITY' asymmetry.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.baselines.bloom import (
    BloomRecordEncoder,
    DEFAULT_BLOOM_BITS,
    DEFAULT_BLOOM_HASHES,
)
from repro.core.config import DEFAULT_DELTA, DEFAULT_K
from repro.core.qgram import QGramScheme
from repro.hamming.distance import verify_attribute_pairs
from repro.hamming.lsh import HammingLSH
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows


class BfHLinker:
    """Bloom-filter Hamming LSH record linkage.

    Parameters
    ----------
    attribute_thresholds:
        Per-attribute Hamming thresholds in the Bloom filter space, applied
        during matching (paper: 45 per perturbed name field, 90 for the
        doubly perturbed address field).  Attributes without a threshold
        are unconstrained.
    n_attributes:
        Number of record attributes.
    k, delta:
        HB parameters (paper: K = 30, delta = 0.1).
    blocking_threshold:
        Record-level threshold for Equation (2); defaults to the sum of
        the attribute thresholds.
    """

    def __init__(
        self,
        attribute_thresholds: Mapping[str, int],
        n_attributes: int,
        names: Sequence[str] | None = None,
        k: int = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        blocking_threshold: int | None = None,
        n_tables: int | None = None,
        bloom_bits: int = DEFAULT_BLOOM_BITS,
        bloom_hashes: int = DEFAULT_BLOOM_HASHES,
        scheme: QGramScheme | None = None,
        seed: int | None = None,
    ) -> None:
        if not attribute_thresholds:
            raise ValueError("attribute_thresholds must be non-empty")
        self.encoder = BloomRecordEncoder(
            n_attributes, names=names, n_bits=bloom_bits, n_hashes=bloom_hashes, scheme=scheme
        )
        for attribute in attribute_thresholds:
            self.encoder.layout(attribute)  # validates the name
        self.attribute_thresholds = dict(attribute_thresholds)
        if blocking_threshold is None:
            blocking_threshold = sum(self.attribute_thresholds.values())
        self.blocking_threshold = blocking_threshold
        self.k = k
        self.delta = delta
        self.n_tables = n_tables
        self.seed = seed

    def _build_lsh(self) -> HammingLSH:
        return HammingLSH(
            n_bits=self.encoder.total_bits,
            k=self.k,
            threshold=self.blocking_threshold,
            delta=self.delta,
            n_tables=self.n_tables,
            seed=self.seed,
        )

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> HB blocking -> attribute-threshold matching."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            matrix_a = self.encoder.encode_dataset(rows_a)
            matrix_b = self.encoder.encode_dataset(rows_b)
        with timed(timings, "index"):
            lsh = self._build_lsh()
            lsh.index(matrix_a)
        with timed(timings, "match"):
            candidates = lsh.candidate_pairs(matrix_b)
            out_a, out_b, distances = verify_attribute_pairs(
                candidates,
                lambda cand_a, cand_b: self.encoder.attribute_distances(
                    matrix_a, cand_a, matrix_b, cand_b
                ),
                self.attribute_thresholds,
            )
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=int(candidates[0].size),
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            attribute_distances=distances,
            counters={"n_tables": float(lsh.n_tables)},
        )
