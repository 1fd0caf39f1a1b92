"""Hamming space substrate: packed bit matrices and LSH blocking."""

from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.distance import hamming_packed, jaccard_distance_sets
from repro.hamming.lsh import BlockingGroup, CompositeHash, HammingLSH, sample_positions
from repro.hamming.theory import (
    base_success_probability,
    composite_collision_probability,
    hamming_lsh_parameters,
    optimal_table_count,
    recall_lower_bound,
)

__all__ = [
    "BitMatrix",
    "BlockingGroup",
    "CompositeHash",
    "HammingLSH",
    "base_success_probability",
    "composite_collision_probability",
    "hamming_lsh_parameters",
    "hamming_packed",
    "jaccard_distance_sets",
    "optimal_table_count",
    "recall_lower_bound",
    "sample_positions",
    "scatter_bits",
]
