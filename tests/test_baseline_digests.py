"""Pin the baselines beyond golden parity's 200 records, byte for byte.

``tests/data/golden_parity.json`` pins every linker on one 200-record
problem.  These digests pin the q-gram baselines (BfH's Bloom filters,
HARRA's and MinHash's bigram sets, canopy's Jaccard blocking) on larger
NCVR PL and DBLP PH problems, where buckets, canopies and early pruning
meet far more collisions, and SM-EB with its p-stable blocking
(:class:`EuclideanLSH`, also alone on Gaussian points in wide, crowded
buckets): a change to how the baselines embed, hash, join or measure
distances keeps every seed's matches and candidate counts identical.
Each linker digest is SHA-256 over the sorted matches and
``n_candidates`` of one fixed-seed run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import BfHLinker, CanopyLinker, HarraLinker, MinHashLinker, SMEBLinker
from repro.baselines.pstable import EuclideanLSH
from repro.data import (
    DBLPGenerator,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.data.pairs import LinkageProblem
from repro.pipeline.result import LinkageResult

SEED = 7

#: family -> (generator, perturbation scheme, records a side, canopy's records a side)
CELLS = {
    "ncvr-pl": (NCVRGenerator, scheme_pl, 1000, 500),
    "dblp-ph": (DBLPGenerator, scheme_ph, 500, 300),
}

#: Section 6.1's matching thresholds per cell.
BFH_THRESHOLDS = {
    "ncvr-pl": {"f1": 45, "f2": 45, "f3": 45, "f4": 45},
    "dblp-ph": {"f1": 45, "f2": 45, "f3": 90},
}
JACCARD_THRESHOLD = {"ncvr-pl": 0.35, "dblp-ph": 0.45}
HARRA_TABLES = {"ncvr-pl": 30, "dblp-ph": 90}

LINKERS: dict[str, Callable[[str], object]] = {
    "bfh": lambda cell: BfHLinker(BFH_THRESHOLDS[cell], n_attributes=4, seed=SEED),
    "harra": lambda cell: HarraLinker(
        JACCARD_THRESHOLD[cell], n_tables=HARRA_TABLES[cell], seed=SEED
    ),
    "harra-no-pruning": lambda cell: HarraLinker(
        JACCARD_THRESHOLD[cell], n_tables=HARRA_TABLES[cell], early_pruning=False, seed=SEED
    ),
    "minhash": lambda cell: MinHashLinker(
        JACCARD_THRESHOLD[cell], n_tables=HARRA_TABLES[cell], seed=SEED
    ),
    "canopy": lambda cell: CanopyLinker(4, seed=SEED),
    "smeb": lambda cell: SMEBLinker(
        {f"f{i}": 4.5 for i in (1, 2, 3, 4)}, n_attributes=4, seed=SEED
    ),
}

DIGESTS = {
    ("ncvr-pl", "bfh"): "3bfbca2dc4931a08f526fa6ae8c521f4bcc3668dbc357a1a85389264a38f4654",
    ("ncvr-pl", "harra"): "53bb5d809ef852f3fd3622cd2cd67932a47782b8267decbe676a8158c1064376",
    ("ncvr-pl", "harra-no-pruning"): (
        "37eb13418c7dc0f15f1f55bd205d1cc4cbe52e7e1789f4c98d5969937e27efc0"
    ),
    ("ncvr-pl", "minhash"): "13df2bea4056db31c2bab5d9eb16e224f1f318c365cca89cb908db43c99245f5",
    ("ncvr-pl", "canopy"): "64a49aeb502b537b2829fa2d51f6482e6bfa1a05a490edb3a20331db940c985e",
    ("dblp-ph", "bfh"): "3f786b690ac348ad83fbf4466fe66855a2cb78e3e1cc5f8d04ce39c607672567",
    ("dblp-ph", "harra"): "7c4f01b5175190f60eaa58ad13f182e28162811e6972a8e1db4d44209fb72b7e",
    ("dblp-ph", "harra-no-pruning"): (
        "3e4dd676dd2805e6444f6ccf3266f7c12b9ce926278152f2eca1892a76da5634"
    ),
    ("dblp-ph", "minhash"): "0e86fe668d9d62e427f697d02cd5d25804224496fa57017c7ae191ca9ad361af",
    ("dblp-ph", "canopy"): "8281e784da89d12f548269cf6a5843480e53ffc36e01d518a44e22356b84c7e1",
    # NCVR only, at canopy's 500 a side: SM-EB's pivot search takes ~45 s
    # on DBLP at 300 a side.
    ("ncvr-pl", "smeb"): "4bbaa3a1ca51e1c8ff50407c7508f825ef8f93026c3de34db6d158fdf26a2e30",
}

#: ``EuclideanLSH.candidate_pairs`` of 2 000 Gaussian points a side in R^6,
#: K = 4, L = 8, w = 3: 889 283 distinct candidates of 4 000 000 pairs.
EUCLIDEAN_DIGEST = "c757bdf4523bf8153445c59402f77f342e83c760993e935edcbd554b8b648316"


@lru_cache(maxsize=4)
def problem(cell: str, n: int) -> LinkageProblem:
    generator, scheme, __, __ = CELLS[cell]
    return build_linkage_problem(generator(), n, scheme(), seed=SEED)


def result_digest(result: LinkageResult) -> str:
    """SHA-256 over the sorted matches and the candidate count."""
    payload = {
        "matches": sorted([int(a), int(b)] for a, b in result.matches),
        "n_candidates": int(result.n_candidates),
    }
    text = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("cell, name", sorted(DIGESTS))
def test_baseline_digest(cell, name):
    __, __, n, n_canopy = CELLS[cell]
    prob = problem(cell, n_canopy if name in ("canopy", "smeb") else n)
    result = LINKERS[name](cell).link(prob.dataset_a, prob.dataset_b)
    assert result_digest(result) == DIGESTS[cell, name]


def test_euclidean_candidates_digest():
    rng = np.random.default_rng(SEED)
    points_a, points_b = rng.standard_normal((2000, 6)), rng.standard_normal((2000, 6))
    lsh = EuclideanLSH(6, k=4, n_tables=8, w=3.0, seed=SEED)
    lsh.index(points_a)
    rows_a, rows_b = lsh.candidate_pairs(points_b)
    assert rows_a.size == 889_283
    payload = rows_a.astype("<i8").tobytes() + rows_b.astype("<i8").tobytes()
    assert hashlib.sha256(payload).hexdigest() == EUCLIDEAN_DIGEST
