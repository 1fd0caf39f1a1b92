"""Golden parity: every registered linker reproduces its committed output.

``tests/data/golden_parity.json`` pins each linker's fixed-seed run:
matches and candidate counts byte-identical, the ``timings`` keys in
their order and the ``counters`` keys.  A change that alters none of
the linkage behaviour leaves every entry as it is.
"""

import json

import pytest

from tests.golden_linkers import (
    GOLDEN_PATH,
    RUNNERS,
    make_problem,
    outcome_payload,
)


@pytest.fixture(scope="module")
def problem():
    return make_problem()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_runner(golden):
    assert set(golden) == set(RUNNERS)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_linker_matches_golden(name, problem, golden):
    got = outcome_payload(RUNNERS[name](problem))
    want = golden[name]
    assert got["n_candidates"] == want["n_candidates"]
    assert got["n_matches"] == want["n_matches"]
    assert got["matches"] == want["matches"]
    assert got["timings"] == want["timings"]
    assert got["counters"] == want["counters"]
