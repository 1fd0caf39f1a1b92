"""SM-EB baseline: StringMap embedding + Euclidean LSH blocking (Section 6.1).

Each attribute is embedded into R^20 by :class:`StringMapEmbedder` (pivots
chosen per attribute from both datasets, as the original algorithm iterates
"the strings of both data sets"), the per-attribute coordinate blocks are
concatenated into record vectors, and the Euclidean p-stable LSH blocks
them.  The attribute-level Euclidean thresholds (paper: 4.5 / 4.5 / 7.7)
are applied during the matching step only; the blocking threshold is the
largest attribute threshold (see :attr:`SMEBLinker.blocking_threshold`).

``link`` is the StringMap embedding, :class:`EuclideanLSH` blocking and
the shared attribute-threshold match
(:func:`~repro.hamming.distance.verify_attribute_pairs`) over per-attribute
block Euclidean distances.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.baselines.pstable import EuclideanLSH
from repro.baselines.stringmap import StringMapEmbedder as StringMapEmbedder
from repro.hamming.distance import verify_attribute_pairs
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows


class SMEBLinker:
    """StringMap + Euclidean-LSH record linkage.

    Parameters
    ----------
    attribute_thresholds:
        Euclidean matching threshold per attribute name (``f1..fn`` by
        default).  Attributes without one are embedded but unconstrained.
    n_attributes:
        Number of record attributes.
    d:
        StringMap dimensionality per attribute (paper: 20).
    k:
        Base hashes per blocking group (paper: 5).
    """

    def __init__(
        self,
        attribute_thresholds: Mapping[str, float],
        n_attributes: int,
        names: Sequence[str] | None = None,
        d: int = 20,
        k: int = 5,
        delta: float = 0.1,
        n_tables: int | None = None,
        w: float | None = None,
        max_tables: int = 250,
        pivot_sample: int = 50,
        seed: int | None = None,
    ) -> None:
        if not attribute_thresholds:
            raise ValueError("attribute_thresholds must be non-empty")
        if n_attributes < 1:
            raise ValueError(f"n_attributes must be >= 1, got {n_attributes}")
        if names is None:
            names = [f"f{i + 1}" for i in range(n_attributes)]
        if len(names) != n_attributes:
            raise ValueError(f"{len(names)} names for {n_attributes} attributes")
        unknown = set(attribute_thresholds) - set(names)
        if unknown:
            raise ValueError(f"thresholds reference unknown attributes {sorted(unknown)}")
        self.names = list(names)
        self.attribute_thresholds = dict(attribute_thresholds)
        self.d = d
        self.k = k
        self.delta = delta
        self.n_tables = n_tables
        self.max_tables = max_tables
        self.pivot_sample = pivot_sample
        self.seed = seed
        # Datar et al.'s family needs the bucket width scaled to the target
        # radius; w of about twice the blocking threshold reproduces the
        # paper's group counts for K = 5 (L ~= 29 under PL with thresholds
        # of 4.5, and ~194 under PH when the same w = 9 is kept).
        self.w = w if w is not None else 2.0 * self.blocking_threshold

    @property
    def blocking_threshold(self) -> float:
        """Record-level Euclidean threshold fed into Equation (2).

        Follows the paper's calibration: the attribute-level threshold
        (its largest value across attributes) rather than the norm of the
        threshold vector.  Reverse-engineering the paper's L = 29 (PL) and
        L = 194 (PH) shows this is what the authors used — and it is also
        the source of SM-EB's low PC, since rule-satisfying pairs sit at
        *record-level* distances well above one attribute's threshold.
        """
        return float(max(self.attribute_thresholds.values()))

    @property
    def computed_n_tables(self) -> int:
        """The (capped) L that Equation (2) yields for this configuration."""
        if self.n_tables is not None:
            return self.n_tables
        from repro.baselines.pstable import euclidean_lsh_parameters

        __, tables = euclidean_lsh_parameters(
            self.blocking_threshold, self.k, self.delta, self.w
        )
        return min(tables, self.max_tables)

    def _build_lsh(self, seed: np.random.SeedSequence) -> EuclideanLSH:
        return EuclideanLSH(
            dim=len(self.names) * self.d,
            k=self.k,
            threshold=self.blocking_threshold,
            delta=self.delta,
            n_tables=self.computed_n_tables,
            w=self.w,
            seed=seed,
        )

    def _embed(
        self,
        rows_a: Sequence[Sequence[str]],
        rows_b: Sequence[Sequence[str]],
        seeds: Sequence[np.random.SeedSequence],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-attribute StringMap embeddings, concatenated into record vectors.

        For every attribute a fresh :class:`StringMapEmbedder` fits its pivots
        on the pooled values of both datasets (the original algorithm iterates
        "the strings of both data sets"), then transforms each column; the
        per-attribute coordinate blocks are horizontally stacked.  Pivot
        selection over repeated edit-distance computations dominates SM-EB's
        embedding time, exactly as the paper's Figure 8(b) reports.
        """
        blocks_a: list[np.ndarray] = []
        blocks_b: list[np.ndarray] = []
        for att, seed in enumerate(seeds):
            column_a = [row[att] for row in rows_a]
            column_b = [row[att] for row in rows_b]
            embedder = StringMapEmbedder(d=self.d, pivot_sample=self.pivot_sample, seed=seed)
            embedder.fit(column_a + column_b)
            blocks_a.append(embedder.transform(column_a))
            blocks_b.append(embedder.transform(column_b))
        return np.hstack(blocks_a), np.hstack(blocks_b)

    def _attribute_distances(
        self, points_a: np.ndarray, cand_a: np.ndarray, points_b: np.ndarray, cand_b: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Per-attribute Euclidean distances over the candidate pairs."""
        distances: dict[str, np.ndarray] = {}
        for att, name in enumerate(self.names):
            block = slice(att * self.d, (att + 1) * self.d)
            deltas = points_a[cand_a, block] - points_b[cand_b, block]
            distances[name] = np.sqrt((deltas * deltas).sum(axis=1))
        return distances

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> p-stable blocking -> attribute-threshold matching."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        seeds = np.random.SeedSequence(self.seed).spawn(len(self.names) + 1)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            points_a, points_b = self._embed(rows_a, rows_b, seeds[: len(self.names)])
        with timed(timings, "index"):
            lsh = self._build_lsh(seeds[len(self.names)])
            lsh.index(points_a)
        with timed(timings, "match"):
            candidates = lsh.candidate_pairs(points_b)
            out_a, out_b, distances = verify_attribute_pairs(
                candidates,
                lambda cand_a, cand_b: self._attribute_distances(
                    points_a, cand_a, points_b, cand_b
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
