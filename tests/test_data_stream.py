"""Pin the generated data stream, byte for byte.

Every benchmark cell and every reproduced figure starts from
``build_linkage_problem``; a change to how ``repro.data`` draws (a bulk
pre-draw, a reordered draw, a different sampling routine) silently
changes every result downstream.  These digests were computed once and
must not move: a speed-up of the generators keeps each seed's records,
true pairs and operation logs identical.
"""

from __future__ import annotations

import hashlib
import json

from repro.data import (
    CompositeScheme,
    DBLPGenerator,
    MissingValueScheme,
    NCVRGenerator,
    WordScrambleScheme,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.data.pairs import LinkageProblem
from repro.data.schema import Dataset


def _dataset_rows(dataset: Dataset) -> list:
    return [[record_id, list(values)] for record_id, values in dataset]


def _digest(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def problem_digest(problem: LinkageProblem) -> str:
    """SHA-256 over A and B (ids, values), sorted true pairs and the op log."""
    return _digest(
        {
            "a": _dataset_rows(problem.dataset_a),
            "b": _dataset_rows(problem.dataset_b),
            "true_matches": sorted(problem.true_matches),
            "operation_log": [
                [list(pair), [[op.attribute, op.operation.value] for op in log]]
                for pair, log in sorted(problem.operation_log.items())
            ],
        }
    )


def dataset_digest(dataset: Dataset) -> str:
    return _digest(_dataset_rows(dataset))


NCVR_PL_2000_SEED7 = "a47f8488b151670b55ea4d7e8181ce0d5eb64746d2b8b76199d5925de17d7d8c"
DBLP_PH_500_SEED7 = "15dc1092dc1102bbc781c45c42f9f6ef5a00080229b1e618496c111de4076786"
NCVR_1000_SEED3 = "2b9266450e8da7bfd555667e5e100b7dc77c6267c7fe83106ce23a7c065d8e50"
# Computed before the per-record loops drew through repro.data.draws.
NCVR_PH_1000_SEED7 = "1594f8844a5021bb60a70e337a3001816c85aa3581f9dfa6563d9c86a36de134"
DBLP_PL_500_SEED7 = "8c9c654428b250190066318975e4e4abba8940ab39ce7f583e9bd68c33044bb3"
NCVR_PL_1000_P02_SEED5 = "97137b7c683fab3de7ec07d444215b72f532a66561049e79909bade8d6b4ad44"
DBLP_500_SEED3 = "774227d31d16aa594ea012d60efc04cb1c3958f6ef072067e6f5d14c4b39d11b"
NCVR_COMPOSITE_1000_SEED9 = "bb318fae0918e2ecdcd199af5e9a9b0daf441780e79767f1a0c20082f60f23d7"


class TestStreamDigests:
    def test_ncvr_pl_problem(self):
        problem = build_linkage_problem(NCVRGenerator(), 2000, scheme_pl(), seed=7)
        assert problem_digest(problem) == NCVR_PL_2000_SEED7

    def test_dblp_ph_problem(self):
        problem = build_linkage_problem(DBLPGenerator(), 500, scheme_ph(), seed=7)
        assert problem_digest(problem) == DBLP_PH_500_SEED7

    def test_ncvr_generate(self):
        assert dataset_digest(NCVRGenerator().generate(1000, seed=3)) == NCVR_1000_SEED3

    def test_ncvr_ph_problem(self):
        problem = build_linkage_problem(NCVRGenerator(), 1000, scheme_ph(), seed=7)
        assert problem_digest(problem) == NCVR_PH_1000_SEED7

    def test_dblp_pl_problem(self):
        problem = build_linkage_problem(DBLPGenerator(), 500, scheme_pl(), seed=7)
        assert problem_digest(problem) == DBLP_PL_500_SEED7

    def test_filler_heavy_problem(self):
        """Four fifths of B are filler records."""
        problem = build_linkage_problem(
            NCVRGenerator(), 1000, scheme_pl(), match_probability=0.2, seed=5
        )
        assert problem_digest(problem) == NCVR_PL_1000_P02_SEED5

    def test_dblp_generate(self):
        assert dataset_digest(DBLPGenerator().generate(500, seed=3)) == DBLP_500_SEED3

    def test_composite_scheme_problem(self):
        """Typos, blanked values and rotated words drawn from one stream."""
        scheme = CompositeScheme(
            (scheme_pl(), MissingValueScheme(0.2, protect=(0,)), WordScrambleScheme(0.5))
        )
        problem = build_linkage_problem(NCVRGenerator(), 1000, scheme, seed=9)
        assert problem_digest(problem) == NCVR_COMPOSITE_1000_SEED9
