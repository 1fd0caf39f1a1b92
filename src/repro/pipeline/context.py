"""The mutable state a :class:`LinkagePipeline` threads through its stages.

Each stage reads the fields earlier stages produced and writes its own:
embed stages fill ``embedded_a`` / ``embedded_b``, block stages
``blocker``, candidate stages the materialised ``cand_a`` / ``cand_b``
arrays plus ``n_candidates``, and verify/classify stages the final
``out_a`` / ``out_b`` / distance fields the runner assembles into a
:class:`repro.pipeline.result.LinkageResult`.

``extras`` is the escape hatch for method-specific intermediates (HARRA's
bigram sets, MinHash band keys, ...) that no shared field models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class PipelineContext:
    """Shared state of one pipeline run.

    ``dataset_a`` / ``dataset_b`` are the raw inputs (kept for calibrate
    stages that sample them); ``rows_a`` / ``rows_b`` are their
    normalised value rows, computed once by the runner.
    """

    dataset_a: Any
    dataset_b: Any
    rows_a: list[tuple[str, ...]]
    rows_b: list[tuple[str, ...]]
    #: Encoder the embed stage used (RecordEncoder, BloomRecordEncoder, ...).
    encoder: Any = None
    #: Embedded datasets (BitMatrix, float ndarray, packed uint64 words, ...).
    embedded_a: Any = None
    embedded_b: Any = None
    #: Blocking structure built by the block stage (HammingLSH, ...).
    blocker: Any = None
    #: Materialised candidate pair arrays.
    cand_a: np.ndarray | None = None
    cand_b: np.ndarray | None = None
    n_candidates: int = 0
    #: Classified matches and their distances.
    out_a: np.ndarray | None = None
    out_b: np.ndarray | None = None
    record_distances: np.ndarray | None = None
    attribute_distances: dict[str, np.ndarray] = field(default_factory=dict)
    #: Diagnostics merged into the result (intern stats, pair counts, ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: Method-specific intermediates with no shared field.
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def comparison_space(self) -> int:
        """|A| x |B| — the full quadratic pair space."""
        return len(self.rows_a) * len(self.rows_b)
