"""Hamming space substrate: bit vectors, packed matrices and LSH blocking."""

from repro.hamming.bitmatrix import BitMatrix, concat_matrices, scatter_bits
from repro.hamming.bitvector import BitVector
from repro.hamming.distance import (
    hamming,
    hamming_int,
    hamming_packed,
    jaccard_distance_sets,
    normalized_hamming,
)
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
    "BitVector",
    "BlockingGroup",
    "CompositeHash",
    "HammingLSH",
    "base_success_probability",
    "composite_collision_probability",
    "concat_matrices",
    "hamming",
    "hamming_int",
    "hamming_lsh_parameters",
    "hamming_packed",
    "jaccard_distance_sets",
    "normalized_hamming",
    "optimal_table_count",
    "recall_lower_bound",
    "sample_positions",
    "scatter_bits",
]
