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
    DBLPGenerator,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.data.pairs import LinkageProblem
from repro.data.schema import Dataset


def _dataset_rows(dataset: Dataset) -> list:
    return [[record.record_id, list(record.values)] for record in dataset]


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


class TestStreamDigests:
    def test_ncvr_pl_problem(self):
        problem = build_linkage_problem(NCVRGenerator(), 2000, scheme_pl(), seed=7)
        assert problem_digest(problem) == NCVR_PL_2000_SEED7

    def test_dblp_ph_problem(self):
        problem = build_linkage_problem(DBLPGenerator(), 500, scheme_ph(), seed=7)
        assert problem_digest(problem) == DBLP_PH_500_SEED7

    def test_ncvr_generate(self):
        assert dataset_digest(NCVRGenerator().generate(1000, seed=3)) == NCVR_1000_SEED3
