"""Exhaustive (no-blocking) reference linker.

Verifies *every* cross-dataset pair against the record-level compact
Hamming threshold — the PC upper bound any blocking method is measured
against, and the simplest possible pipeline: no block stage at all, just
embed -> verify all pairs.  The verify stage walks the quadratic pair
space as encoded-id ranges, one block at a time through the shared
blocked verify, so memory stays flat: only the accepted pairs are kept.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.pipeline.context import PipelineContext
from repro.pipeline.result import LinkageResult
from repro.pipeline.runner import LinkagePipeline
from repro.pipeline.stage import VerifyStage
from repro.pipeline.stages import SampledCalibrationEmbedStage, _packed_words


class AllPairsVerifyStage(VerifyStage):
    """Verify every ``(a, b)`` pair, ``DEFAULT_BLOCK_ROWS`` encoded ids at a time."""

    def __init__(self, threshold: int):
        self.threshold = threshold

    def run(self, ctx: PipelineContext) -> None:
        # Runtime import: keep this module import-leaf (see package docstring).
        from repro.hamming.distance import DEFAULT_BLOCK_ROWS, verify_pairs

        n_b, total = len(ctx.rows_b), ctx.comparison_space
        words_a, words_b = _packed_words(ctx.embedded_a), _packed_words(ctx.embedded_b)
        kept = [(np.empty(0, dtype=np.int64),) * 3]  # no pairs still concatenate
        for lo in range(0, total, DEFAULT_BLOCK_ROWS):
            block = np.arange(lo, min(lo + DEFAULT_BLOCK_ROWS, total), dtype=np.int64)
            kept.append(verify_pairs(words_a, words_b, (block, n_b), self.threshold))
        ctx.out_a, ctx.out_b, ctx.record_distances = map(np.concatenate, zip(*kept))
        ctx.n_candidates = total
        ctx.counters["pairs_verified"] = float(total)


class ExhaustiveLinker:
    """All-pairs compact-Hamming linkage (the blocking-free upper bound).

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    """

    def __init__(
        self,
        threshold: int,
        scheme: Any = None,
        seed: int | None = None,
        sample_size: int = 1000,
    ):
        self.threshold = threshold
        self.scheme = scheme
        self.seed = seed
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
                AllPairsVerifyStage(self.threshold),
            ]
        )
        return pipeline.run(dataset_a, dataset_b)
