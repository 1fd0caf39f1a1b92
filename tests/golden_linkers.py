"""Golden-parity harness: fixed-seed runs of every linker in the repo.

One place defines the linkage problem and one canonical configuration per
linker; ``tests/test_golden_parity.py`` asserts that each run reproduces
the committed ``tests/data/golden_parity.json`` byte for byte: matches,
candidate counts, the ``timings`` keys in order and the ``counters`` keys.

Regenerate (only when a change is *supposed* to alter linkage output)::

    PYTHONPATH=src:tests python -m golden_linkers
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.baselines import (
    BfHLinker,
    CanopyLinker,
    HarraLinker,
    MinHashLinker,
    SMEBLinker,
    SortedNeighborhoodLinker,
)
from repro.core.config import NCVR_ATTRIBUTE_K
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.pairs import LinkageProblem
from repro.pipeline.exhaustive import ExhaustiveLinker
from repro.pipeline.result import LinkageResult
from repro.rules.parser import parse_rule
from repro.serve import QueryEngine
from repro.serve.engine import fold_counters

PROBLEM_N = 200
PROBLEM_SEED = 7
THRESHOLD = 4
K = 30
NCVR_RULE = "(f1<=4) & (f2<=4) & (f3<=8)"
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_parity.json"

#: (matches, n_candidates, timings keys in order, sorted counters keys) of one run.
RunOutcome = tuple[set[tuple[int, int]], int, list[str], list[str]]


def make_problem() -> LinkageProblem:
    """The shared fixed-seed NCVR PL linkage problem."""
    return build_linkage_problem(
        NCVRGenerator(), PROBLEM_N, scheme_pl(), seed=PROBLEM_SEED
    )


def incremental_engine(
    encoder: RecordEncoder,
    rows: Sequence[Sequence[str]],
    threshold: int = THRESHOLD,
    k: int = K,
    seed: int = PROBLEM_SEED,
) -> QueryEngine:
    """The real-time setting: an in-memory one-shard engine that ingested
    ``rows`` one record at a time, so every record went through the delta
    run and none through the bulk build (no WAL: it was never saved)."""
    engine = QueryEngine.build([], encoder, threshold, k=k, seed=seed, n_shards=1)
    for values in rows:
        engine.ingest([values])
    return engine


def query_each(
    engine: QueryEngine, rows: Sequence[Sequence[str]], top_k: int | None = None
) -> list[list[tuple[int, int]]]:
    """Each record's matches from its own one-row batch."""
    return [engine.query_batch([values], top_k=top_k).matches()[0] for values in rows]


def _outcome(result: LinkageResult) -> RunOutcome:
    return result.matches, result.n_candidates, list(result.timings), sorted(result.counters)


def _run_cbv_record(problem: LinkageProblem) -> RunOutcome:
    linker = CompactHammingLinker.record_level(
        threshold=THRESHOLD,
        k=K,
        seed=PROBLEM_SEED,
    )
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_cbv_rule(problem: LinkageProblem) -> RunOutcome:
    linker = CompactHammingLinker.rule_aware(
        parse_rule(NCVR_RULE),
        k=NCVR_ATTRIBUTE_K,
        seed=PROBLEM_SEED,
    )
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_streaming(problem: LinkageProblem) -> RunOutcome:
    """Record-by-record inserts, then record-by-record queries; the counters
    are the per-record match kernel's, summed, and nothing is timed."""
    calibrator = CompactHammingLinker.record_level(
        threshold=THRESHOLD, k=K, seed=PROBLEM_SEED
    )
    encoder = calibrator.calibrate(problem.dataset_a, problem.dataset_b)
    engine = incremental_engine(encoder, problem.dataset_a.value_rows())
    index = engine.index
    matches: set[tuple[int, int]] = set()
    counters: dict[str, float] = {}
    for j, values in enumerate(problem.dataset_b.value_rows()):
        # A record's candidates are what the one match kernel counts as unique.
        record: dict[str, float] = {}
        index.lsh.match(index.words, encoder.encode_dataset([values]), THRESHOLD, record)
        fold_counters(counters, record)
        for record_id, __ in engine.query_batch([values]).matches()[0]:
            matches.add((record_id, j))
    return matches, int(counters["pairs_unique"]), [], sorted(counters)


def _run_bfh(problem: LinkageProblem) -> RunOutcome:
    linker = BfHLinker(
        {"f1": 45, "f2": 45, "f3": 90}, n_attributes=4, seed=PROBLEM_SEED
    )
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_exhaustive(problem: LinkageProblem) -> RunOutcome:
    linker = ExhaustiveLinker(threshold=THRESHOLD, seed=PROBLEM_SEED)
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_canopy(problem: LinkageProblem) -> RunOutcome:
    linker = CanopyLinker(threshold=THRESHOLD, seed=PROBLEM_SEED)
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_harra(problem: LinkageProblem) -> RunOutcome:
    linker = HarraLinker(threshold=0.35, k=5, n_tables=30, seed=PROBLEM_SEED)
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_minhash(problem: LinkageProblem) -> RunOutcome:
    linker = MinHashLinker(threshold=0.35, k=5, n_tables=30, seed=PROBLEM_SEED)
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_smeb(problem: LinkageProblem) -> RunOutcome:
    linker = SMEBLinker(
        {"f1": 4.5, "f2": 4.5, "f3": 7.7}, n_attributes=4, seed=PROBLEM_SEED
    )
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


def _run_sorted_neighborhood(problem: LinkageProblem) -> RunOutcome:
    linker = SortedNeighborhoodLinker(
        threshold=THRESHOLD, window=10, passes=2, seed=PROBLEM_SEED
    )
    return _outcome(linker.link(problem.dataset_a, problem.dataset_b))


#: Every golden-pinned linker run, by name.
RUNNERS: dict[str, Callable[[LinkageProblem], RunOutcome]] = {
    "cbv-record-n1": _run_cbv_record,
    "cbv-rule-n1": _run_cbv_rule,
    "streaming": _run_streaming,
    "exhaustive": _run_exhaustive,
    "bfh": _run_bfh,
    "canopy": _run_canopy,
    "harra": _run_harra,
    "minhash": _run_minhash,
    "smeb": _run_smeb,
    "sorted-neighborhood": _run_sorted_neighborhood,
}

def outcome_payload(outcome: RunOutcome) -> dict[str, object]:
    """JSON-stable form of one run outcome."""
    matches, n_candidates, timings, counters = outcome
    return {
        "n_candidates": int(n_candidates),
        "n_matches": len(matches),
        "matches": sorted([int(a), int(b)] for a, b in matches),
        "timings": timings,
        "counters": counters,
    }


def regenerate() -> None:
    problem = make_problem()
    payload = {name: outcome_payload(run(problem)) for name, run in RUNNERS.items()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN_PATH}")  # noqa: reprolint is src-only; this is a test tool
