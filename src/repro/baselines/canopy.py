"""Canopy clustering blocking (Cohen & Richman [6]) — Related Work.

The second classic blocking technique the paper's Section 2 discusses:
"a computationally cheap clustering approach to create high-dimensional
overlapping clusters, from which blocks of candidate record pairs can then
be generated".

Implementation: the cheap distance is the Jaccard distance on record-level
bigram sets (cheap because set intersection needs no dynamic programming).
Starting from the pooled records of both datasets, a random seed record
founds a *canopy* containing every record within ``loose`` distance;
records within ``tight`` distance are removed from the candidate-seed
pool.  Candidate pairs are the cross-dataset pairs sharing a canopy.

On the stage pipeline this is a bigram-set + c-vector embed stage, the
canopy clustering as the block stage, and the shared
:class:`~repro.pipeline.stages.ThresholdVerifyStage` for compact-Hamming
matching, like the other reference baselines.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.minhash import record_bigram_set
from repro.core.qgram import QGramScheme
from repro.hamming.distance import jaccard_distance_sets
from repro.pipeline.context import PipelineContext
from repro.pipeline.result import LinkageResult
from repro.pipeline.runner import LinkagePipeline
from repro.pipeline.stage import BlockStage
from repro.pipeline.stages import SampledCalibrationEmbedStage, ThresholdVerifyStage
from repro.protocol import DatasetLike
from repro.text.alphabet import TEXT_ALPHABET


class CanopyEmbedStage(SampledCalibrationEmbedStage):
    """Pooled bigram sets (A then B) plus the sampled c-vector embedding."""

    def run(self, ctx: PipelineContext) -> None:
        sets = [record_bigram_set(row, self.scheme) for row in ctx.rows_a]
        sets += [record_bigram_set(row, self.scheme) for row in ctx.rows_b]
        ctx.extras["bigram_sets"] = sets
        super().run(ctx)


class _CanopyBlockStage(BlockStage):
    """Seed canopies over the pooled records; cross-dataset co-members pair."""

    def __init__(self, linker: "CanopyLinker") -> None:
        self.linker = linker

    def run(self, ctx: PipelineContext) -> None:
        linker = self.linker
        sets = ctx.extras["bigram_sets"]
        n_a, n_b = len(ctx.rows_a), len(ctx.rows_b)
        rng = np.random.default_rng(linker.seed)
        remaining = set(range(n_a + n_b))
        candidate_set: set[int] = set()
        pool = list(remaining)
        rng.shuffle(pool)
        for seed_idx in pool:
            if seed_idx not in remaining:
                continue
            seed_set = sets[seed_idx]
            canopy_a: list[int] = []
            canopy_b: list[int] = []
            for other in list(remaining):
                distance = jaccard_distance_sets(seed_set, sets[other])
                if distance <= linker.loose:
                    if other < n_a:
                        canopy_a.append(other)
                    else:
                        canopy_b.append(other - n_a)
                    if distance <= linker.tight:
                        remaining.discard(other)
            remaining.discard(seed_idx)
            for i in canopy_a:
                for j in canopy_b:
                    candidate_set.add(i * n_b + j)
        if candidate_set:
            encoded = np.fromiter(candidate_set, dtype=np.int64, count=len(candidate_set))
            ctx.cand_a, ctx.cand_b = encoded // n_b, encoded % n_b
        else:
            empty = np.empty(0, dtype=np.int64)
            ctx.cand_a, ctx.cand_b = empty, empty
        ctx.n_candidates = len(candidate_set)


class CanopyLinker:
    """Canopy-clustering blocking with Hamming verification.

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    loose:
        Jaccard distance under which a record joins a canopy.
    tight:
        Jaccard distance under which a record stops seeding new canopies
        (must be <= loose; smaller tight = more overlapping canopies).
    """

    def __init__(
        self,
        threshold: int,
        loose: float = 0.6,
        tight: float = 0.3,
        scheme: QGramScheme | None = None,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= tight <= loose <= 1.0:
            raise ValueError(
                f"need 0 <= tight <= loose <= 1, got tight={tight}, loose={loose}"
            )
        self.threshold = threshold
        self.loose = loose
        self.tight = tight
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.seed = seed

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> canopy blocking -> Hamming verify on the shared runner."""
        pipeline = LinkagePipeline(
            [
                CanopyEmbedStage(scheme=self.scheme, seed=self.seed),
                _CanopyBlockStage(self),
                ThresholdVerifyStage(self.threshold),
            ]
        )
        return pipeline.run(dataset_a, dataset_b)
