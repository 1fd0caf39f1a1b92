"""Baseline embedding/linkage methods the paper compares against (Section 6.1).

Every linker here is a class with a straight-line ``link(a, b)``; the
registry in :mod:`repro.pipeline.registry` is the full catalogue.
"""

from repro.baselines.bfh import BfHLinker
from repro.baselines.canopy import CanopyLinker
from repro.baselines.bloom import (
    BloomFieldEncoder,
    BloomRecordEncoder,
    DEFAULT_BLOOM_BITS,
    DEFAULT_BLOOM_HASHES,
    bloom_positions,
)
from repro.baselines.harra import HarraLinker
from repro.baselines.minhash import MinHasher, MinHashLinker, MinHashLSH, bigram_matrix
from repro.baselines.pstable import (
    DEFAULT_BUCKET_WIDTH,
    EuclideanLSH,
    collision_probability,
    euclidean_lsh_parameters,
)
from repro.baselines.smeb import SMEBLinker
from repro.baselines.sorted_neighborhood import (
    SortedNeighborhoodLinker,
    default_sorting_key,
)
from repro.baselines.stringmap import StringMapEmbedder

__all__ = [
    "BfHLinker",
    "CanopyLinker",
    "SortedNeighborhoodLinker",
    "default_sorting_key",
    "BloomFieldEncoder",
    "BloomRecordEncoder",
    "DEFAULT_BLOOM_BITS",
    "DEFAULT_BLOOM_HASHES",
    "DEFAULT_BUCKET_WIDTH",
    "EuclideanLSH",
    "HarraLinker",
    "MinHashLSH",
    "MinHashLinker",
    "MinHasher",
    "SMEBLinker",
    "StringMapEmbedder",
    "bigram_matrix",
    "bloom_positions",
    "collision_probability",
    "euclidean_lsh_parameters",
]
