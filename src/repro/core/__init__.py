"""The paper's primary contribution: compact Hamming embeddings + cBV-HB."""

from repro.core.config import (
    CalibrationConfig,
    DBLP_ATTRIBUTE_K,
    DEFAULT_DELTA,
    DEFAULT_K,
    DEFAULT_R,
    DEFAULT_RHO,
    NCVR_ATTRIBUTE_K,
    PH_ATTRIBUTE_THRESHOLDS,
    PL_RECORD_THRESHOLD,
)
from repro.core.cvector import CVectorEncoder, HASH_PRIME, UniversalHash
from repro.core.encoder import AttributeLayout, RecordEncoder
from repro.core.linker import CompactHammingLinker, LinkageResult
from repro.core.qgram import (
    QGramScheme,
    qgram_from_index,
    qgram_index,
    qgram_index_set,
    qgrams,
)
from repro.core.persist import (
    encoder_from_dict,
    encoder_to_dict,
    load_encoder,
    save_encoder,
)
from repro.core.tuning import KCandidate, KSelection, choose_k, measure_k
from repro.core.sizing import (
    SizingReport,
    expected_collisions,
    expected_set_positions,
    optimal_cvector_size,
    record_size,
    size_attribute,
)

__all__ = [
    "AttributeLayout",
    "CVectorEncoder",
    "CalibrationConfig",
    "CompactHammingLinker",
    "DBLP_ATTRIBUTE_K",
    "DEFAULT_DELTA",
    "DEFAULT_K",
    "DEFAULT_R",
    "DEFAULT_RHO",
    "HASH_PRIME",
    "KCandidate",
    "KSelection",
    "LinkageResult",
    "NCVR_ATTRIBUTE_K",
    "PH_ATTRIBUTE_THRESHOLDS",
    "PL_RECORD_THRESHOLD",
    "QGramScheme",
    "RecordEncoder",
    "SizingReport",
    "UniversalHash",
    "choose_k",
    "measure_k",
    "encoder_from_dict",
    "encoder_to_dict",
    "load_encoder",
    "save_encoder",
    "expected_collisions",
    "expected_set_positions",
    "optimal_cvector_size",
    "qgram_from_index",
    "qgram_index",
    "qgram_index_set",
    "qgrams",
    "record_size",
    "size_attribute",
]
