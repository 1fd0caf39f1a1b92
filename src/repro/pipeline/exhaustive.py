"""Exhaustive (no-blocking) reference linker.

Verifies *every* cross-dataset pair against the record-level compact
Hamming threshold — the PC upper bound any blocking method is measured
against, and the simplest possible pipeline: no block stage at all, just
embed -> all-pairs candidates -> verify.  The candidate stage slices the
quadratic pair space into budget-bounded chunks, so memory stays flat.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.pipeline.context import PipelineContext
from repro.pipeline.result import LinkageResult
from repro.pipeline.runner import LinkagePipeline
from repro.pipeline.stage import CandidateStage
from repro.pipeline.stages import SampledCalibrationEmbedStage, ThresholdVerifyStage

#: Default pair budget per candidate chunk (matches the HammingLSH scale).
DEFAULT_MAX_CHUNK_PAIRS = 1 << 20


class AllPairsCandidateStage(CandidateStage):
    """Every (a, b) pair, as encoded-id ranges cut into bounded chunks."""

    def __init__(self, max_chunk_pairs: int = DEFAULT_MAX_CHUNK_PAIRS):
        if max_chunk_pairs < 1:
            raise ValueError(f"max_chunk_pairs must be >= 1, got {max_chunk_pairs}")
        self.max_chunk_pairs = max_chunk_pairs

    def run(self, ctx: PipelineContext) -> None:
        n_b = len(ctx.rows_b)
        total = len(ctx.rows_a) * n_b
        chunks: list[tuple[np.ndarray, np.ndarray]] = []
        for lo in range(0, total, self.max_chunk_pairs):
            encoded = np.arange(lo, min(lo + self.max_chunk_pairs, total), dtype=np.int64)
            chunks.append((encoded // n_b, encoded % n_b))
        ctx.candidate_chunks = chunks
        ctx.n_candidates = total


class ExhaustiveLinker:
    """All-pairs compact-Hamming linkage (the blocking-free upper bound).

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    max_chunk_pairs:
        Pair budget per verification chunk (bounds peak memory).
    """

    def __init__(
        self,
        threshold: int,
        scheme: Any = None,
        seed: int | None = None,
        max_chunk_pairs: int = DEFAULT_MAX_CHUNK_PAIRS,
        sample_size: int = 1000,
    ):
        self.threshold = threshold
        self.scheme = scheme
        self.seed = seed
        self.max_chunk_pairs = max_chunk_pairs
        self.sample_size = sample_size

    def link(self, dataset_a: Any, dataset_b: Any) -> LinkageResult:
        # Runtime import: keep this module import-leaf (see package docstring).
        from repro.core.qgram import QGramScheme
        from repro.text.alphabet import TEXT_ALPHABET

        scheme = self.scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        pipeline = LinkagePipeline(
            [
                SampledCalibrationEmbedStage(
                    scheme=scheme, seed=self.seed, sample_size=self.sample_size
                ),
                AllPairsCandidateStage(self.max_chunk_pairs),
                ThresholdVerifyStage(self.threshold, sort_pairs=True),
            ]
        )
        return pipeline.run(dataset_a, dataset_b)
