"""The composable stage-pipeline every linker in the repo runs on.

The paper's method is explicitly staged (Section 5, Algorithm 2):
calibrate -> embed -> block -> generate candidates -> verify/classify.
This package turns that observation into the execution architecture —
one :class:`LinkagePipeline` runner owning timings and counters, with every method (cBV-HB record-level and
rule-aware, streaming, and all baselines) expressed as a composition of
:class:`Stage` implementations.  See ``docs/pipeline.md``.

Layering: module-level imports stay within numpy and the stdlib, so
``repro.core`` and ``repro.baselines`` depend on this package freely;
anything heavier (``RecordEncoder``, ``value_rows``, the registry's
linker classes) is imported at run time.
"""

from repro.pipeline.context import PipelineContext
from repro.pipeline.registry import (
    LinkerSpec,
    available_linkers,
    create_linker,
    get_linker,
    linker_names,
)
from repro.pipeline.result import LinkageResult
from repro.pipeline.runner import LinkagePipeline
from repro.pipeline.stage import (
    BlockStage,
    CalibrateStage,
    CandidateStage,
    ClassifyStage,
    EmbedStage,
    PipelineStage,
    Stage,
    VerifyStage,
)
from repro.pipeline.stages import (
    AttributeThresholdClassifyStage,
    BlockerIndexStage,
    CVectorEmbedStage,
    EncoderCalibrateStage,
    LoadSnapshotStage,
    MaterializedCandidateStage,
    QueryEmbedStage,
    RuleMatchStage,
    SampledCalibrationEmbedStage,
    ThresholdMatchStage,
    ThresholdVerifyStage,
)

__all__ = [
    "AttributeThresholdClassifyStage",
    "BlockStage",
    "BlockerIndexStage",
    "CVectorEmbedStage",
    "CalibrateStage",
    "CandidateStage",
    "ClassifyStage",
    "EmbedStage",
    "EncoderCalibrateStage",
    "LoadSnapshotStage",
    "LinkagePipeline",
    "LinkageResult",
    "LinkerSpec",
    "MaterializedCandidateStage",
    "PipelineContext",
    "PipelineStage",
    "QueryEmbedStage",
    "RuleMatchStage",
    "SampledCalibrationEmbedStage",
    "Stage",
    "ThresholdMatchStage",
    "ThresholdVerifyStage",
    "VerifyStage",
    "available_linkers",
    "create_linker",
    "get_linker",
    "linker_names",
]
