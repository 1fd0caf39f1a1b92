"""``LinkagePipeline``: the one execution engine behind every linker.

The runner owns what used to be duplicated across ten ``link()``
implementations: value-row normalisation, per-stage wall-clock timing
(accumulated under each stage's timing key), the shared counter dict and the
final :class:`repro.pipeline.result.LinkageResult` assembly.

Stages run strictly in order; each mutates the shared
:class:`repro.pipeline.context.PipelineContext`.  See
``docs/pipeline.md`` for the stage graph and how to add a stage or a
blocking backend.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.pipeline.context import PipelineContext
from repro.pipeline.result import LinkageResult
from repro.pipeline.stage import Stage

if TYPE_CHECKING:
    from repro.protocol import DatasetLike


class LinkagePipeline:
    """Run a sequence of stages over a dataset pair.

    Parameters
    ----------
    stages:
        The stage sequence, in execution order.  Any composition is
        legal (the exhaustive reference linker has no block stage; HARRA
        fuses candidate generation and verification) — the runner only
        requires that *some* stage leaves ``out_a`` / ``out_b`` behind.
    """

    def __init__(self, stages: Sequence[Stage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)

    def run(self, dataset_a: "DatasetLike", dataset_b: "DatasetLike") -> LinkageResult:
        """Execute every stage and assemble the :class:`LinkageResult`."""
        # Runtime import: repro.pipeline stays import-leaf so repro.core
        # can depend on it at module level.
        from repro.protocol import value_rows

        ctx = PipelineContext(
            dataset_a=dataset_a,
            dataset_b=dataset_b,
            rows_a=value_rows(dataset_a),
            rows_b=value_rows(dataset_b),
        )
        timings: dict[str, float] = {}
        for stage in self.stages:
            t0 = time.perf_counter()
            stage.run(ctx)
            timings[stage.timing] = (
                timings.get(stage.timing, 0.0) + time.perf_counter() - t0
            )
        empty = np.empty(0, dtype=np.int64)
        return LinkageResult(
            rows_a=ctx.out_a if ctx.out_a is not None else empty,
            rows_b=ctx.out_b if ctx.out_b is not None else empty,
            n_candidates=int(ctx.n_candidates),
            comparison_space=ctx.comparison_space,
            timings=timings,
            attribute_distances=ctx.attribute_distances,
            record_distances=ctx.record_distances,
            counters=ctx.counters,
        )
