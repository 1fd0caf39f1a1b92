"""Synthetic data: schemas, generators, perturbation and linkage problems."""

from repro.data.generators import (
    DBLP_PROFILE,
    DBLP_SCHEMA,
    DBLPGenerator,
    EXPERIMENT_SCHEME,
    GeneratorProfile,
    NCVR_PROFILE,
    NCVR_SCHEMA,
    NCVRGenerator,
    average_qgram_counts,
)
from repro.data.io import read_dataset, write_dataset, write_matches
from repro.data.pairs import LinkageProblem, build_linkage_problem
from repro.data.quality import (
    CompositeScheme,
    MissingValueScheme,
    WordScrambleScheme,
    missingness_summary,
)
from repro.data.perturb import (
    ALL_OPERATIONS,
    AppliedOperation,
    Operation,
    PerturbationScheme,
    apply_operation,
    scheme_ph,
    scheme_pl,
)
from repro.data.schema import (
    AttributeSpec,
    Dataset,
    Schema,
    dataset_from_rows,
)

__all__ = [
    "ALL_OPERATIONS",
    "AppliedOperation",
    "AttributeSpec",
    "CompositeScheme",
    "MissingValueScheme",
    "WordScrambleScheme",
    "missingness_summary",
    "read_dataset",
    "write_dataset",
    "write_matches",
    "DBLPGenerator",
    "DBLP_PROFILE",
    "DBLP_SCHEMA",
    "Dataset",
    "EXPERIMENT_SCHEME",
    "GeneratorProfile",
    "LinkageProblem",
    "NCVRGenerator",
    "NCVR_PROFILE",
    "NCVR_SCHEMA",
    "Operation",
    "PerturbationScheme",
    "Schema",
    "apply_operation",
    "average_qgram_counts",
    "build_linkage_problem",
    "dataset_from_rows",
    "scheme_ph",
    "scheme_pl",
]
