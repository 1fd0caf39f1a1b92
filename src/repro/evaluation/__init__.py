"""Evaluation: the paper's quality measures and plain-text reporting."""

from repro.evaluation.metrics import (
    LinkageQuality,
    evaluate_linkage,
    pairs_completeness,
    pairs_from_arrays,
    pairs_quality,
    reduction_ratio,
    subset_completeness,
)
from repro.evaluation.reporting import format_table

__all__ = [
    "LinkageQuality",
    "evaluate_linkage",
    "format_table",
    "pairs_completeness",
    "pairs_from_arrays",
    "pairs_quality",
    "reduction_ratio",
    "subset_completeness",
]
