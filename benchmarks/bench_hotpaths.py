"""Hot-path engine benchmark: pre-PR baseline vs the interned engine and match kernel.

Times the four phases of ``CompactHammingLinker.link`` (embed / index /
candidate generation / match) on the NCVR PL cell at ``REPRO_BENCH_SCALE``
and writes ``BENCH_hotpaths.json`` at the repo root — the first point of
the perf trajectory.

The *baseline* numbers re-run the pre-engine hot path, reproduced here
verbatim so the comparison stays honest as the library evolves:

* embedding with one uncached ``qgram_index_set`` call per
  (record, attribute) — no value interning;
* indexing that builds a Python dict of id-list buckets per blocking
  group;
* candidate generation that walks every bucket in a Python loop and
  materialises every cross-product before a single global ``np.unique``.

The *engine* numbers run the current ``link()`` (interned encoding, the
one match kernel ``HammingLSH.match``: one join, in-place de-dup, blocked
verify).  The script also verifies the engine's invariant — ``link()``'s
rows, order and distances are the kernel's — and records the outcome in
the JSON.

Since ``link()`` executes on the ``repro.pipeline`` stage runner, the
script additionally times the same engine path driven *inline* (no stage
objects, no runner bookkeeping: a direct ``HammingLSH.match``) and reports
the runner's overhead ratio; ``--check`` exits non-zero on an empty
candidate stream, a link that differs from the kernel, or a runner
overhead beyond tolerance (the CI perf-smoke gate).

A rule-aware cell rides along: a DBLP PH slice linked under the
benchmark suite's AND rule and under one OR rule.  Each link must return
exactly what the eager oracle returns — every attribute of every
candidate measured, then ``rule.evaluate`` — and must have measured
fewer attribute distances to get there
(``classify_distance_rows < n_candidates * n_rule_attributes``): a gate
on counts, which repeat exactly, not on wall-clock.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import DBLP_K, DBLP_NAMES, PH_RULE, scaled

from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.core.qgram import clear_index_set_cache, qgram_index_set
from repro.data import (
    DBLPGenerator,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.evaluation.reporting import banner, format_table
from repro.hamming.bitmatrix import scatter_bits
from repro.hamming.lsh import HammingLSH
from repro.rules.blocking import RuleAwareBlocker
from repro.rules.parser import parse_rule

#: Problem size per side (scaled by REPRO_BENCH_SCALE).
BASE_N = 2000
SEED = 7
THRESHOLD = 4
K = 30
#: Rule-aware cell: DBLP PH records per side (scaled) and its two rules.
RULE_BASE_N = 1000
RULES = {
    "and": PH_RULE["dblp"],
    "or": parse_rule("((FirstName<=4) & (LastName<=4)) | (Title<=8)"),
}
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_hotpaths.json"


# -- pre-PR reference implementations --------------------------------------------


def _baseline_encode_dataset(encoder: RecordEncoder, records):
    """The pre-engine embed loop: one uncached index_set per (record, attribute)."""
    rows, bits = [], []
    for att, (enc, layout) in enumerate(zip(encoder.encoders, encoder.layouts)):
        att_rows, originals = [], []
        scheme = enc.scheme
        for i, record in enumerate(records):
            u_s = qgram_index_set(
                record[att], scheme.q, scheme.alphabet, scheme.padded, scheme.pad_char
            )
            att_rows.extend([i] * len(u_s))
            originals.extend(u_s)
        if not originals:
            continue
        hashed = enc.hash_fn.apply(np.asarray(originals, dtype=np.int64))
        rows.append(np.asarray(att_rows, dtype=np.int64))
        bits.append(hashed + layout.offset)
    return scatter_bits(
        len(records), encoder.total_bits, np.concatenate(rows), np.concatenate(bits)
    )


def _baseline_index(lsh: HammingLSH, matrix_a):
    """The pre-engine ``insert_matrix``: one Python dict of buckets per group."""
    tables = []
    for group in lsh.groups:
        keys = group.composite.keys_for(matrix_a)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        bounds = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        buckets = {}
        for i, start in enumerate(bounds):
            stop = bounds[i + 1] if i + 1 < len(bounds) else len(sorted_keys)
            key = sorted_keys[start].item()
            buckets.setdefault(key, []).extend(order[start:stop].tolist())
        tables.append(buckets)
    return tables


def _baseline_candidate_pairs(lsh: HammingLSH, tables, matrix_b):
    """The pre-engine generator: walk every bucket in a Python loop,
    concatenate every raw cross-product, then one global ``np.unique``
    (peak memory = all raw products at once)."""
    n_b = matrix_b.n_rows
    chunks = []
    for group, buckets in zip(lsh.groups, tables):
        keys_b = group.composite.keys_for(matrix_b)
        order = np.argsort(keys_b, kind="stable")
        sorted_keys = keys_b[order]
        bounds = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        for i, start in enumerate(bounds):
            stop = bounds[i + 1] if i + 1 < len(bounds) else len(sorted_keys)
            ids_a = buckets.get(sorted_keys[start].item())
            if not ids_a:
                continue
            rows_b = order[start:stop]
            rows_a = np.asarray(ids_a, dtype=np.int64)
            chunks.append(
                np.repeat(rows_a, rows_b.size) * n_b + np.tile(rows_b, rows_a.size)
            )
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    encoded = np.unique(np.concatenate(chunks))
    return encoded // n_b, encoded % n_b


def _run_baseline(prob):
    """End-to-end pre-PR link(): calibrate, loop-embed, index, unique, verify."""
    phases = {}
    linker = CompactHammingLinker.record_level(threshold=THRESHOLD, k=K, seed=SEED)
    rows_a = prob.dataset_a.value_rows()
    rows_b = prob.dataset_b.value_rows()

    start = time.perf_counter()
    encoder = linker.calibrate(prob.dataset_a, prob.dataset_b)
    phases["calibrate"] = time.perf_counter() - start

    start = time.perf_counter()
    matrix_a = _baseline_encode_dataset(encoder, rows_a)
    matrix_b = _baseline_encode_dataset(encoder, rows_b)
    phases["embed"] = time.perf_counter() - start

    start = time.perf_counter()
    lsh = HammingLSH(
        n_bits=encoder.total_bits, k=K, threshold=THRESHOLD, seed=SEED
    )
    tables = _baseline_index(lsh, matrix_a)
    phases["index"] = time.perf_counter() - start

    start = time.perf_counter()
    cand_a, cand_b = _baseline_candidate_pairs(lsh, tables, matrix_b)
    phases["candidates"] = time.perf_counter() - start

    start = time.perf_counter()
    dist = matrix_a.hamming_rows(cand_a, matrix_b, cand_b)
    keep = dist <= THRESHOLD
    phases["match"] = time.perf_counter() - start

    phases["link_total"] = sum(phases.values())
    matches = set(zip(cand_a[keep].tolist(), cand_b[keep].tolist()))
    return phases, matches, int(cand_a.size)


#: Runner-overhead gate: the stage pipeline must stay within 5% of the
#: inline engine path, with an absolute slack absorbing timer noise on
#: sub-second runs.
OVERHEAD_REPEATS = 3
OVERHEAD_TOLERANCE = 1.05
OVERHEAD_SLACK_S = 0.05


def _run_direct(prob):
    """The engine hot path driven inline — no stage objects, no runner.

    Reproduces exactly what ``CompactHammingLinker.link`` does on the
    stage pipeline (interned embed, index, one ``HammingLSH.match``), so
    the only difference from ``_run_engine`` is the runner's per-stage
    bookkeeping.  Returns the wall-clock, the kernel's
    ``(rows_a, rows_b, distances)`` and its counters.
    """
    linker = CompactHammingLinker.record_level(threshold=THRESHOLD, k=K, seed=SEED)
    rows_a = prob.dataset_a.value_rows()
    rows_b = prob.dataset_b.value_rows()

    start = time.perf_counter()
    encoder = linker.calibrate(prob.dataset_a, prob.dataset_b)
    matrix_a = encoder.encode_dataset(rows_a)
    matrix_b = encoder.encode_dataset(rows_b)
    lsh = linker._build_blocker(encoder)
    lsh.index(matrix_a)
    counters = {}
    kernel = lsh.match(matrix_a.words, matrix_b, THRESHOLD, counters)
    elapsed = time.perf_counter() - start
    return elapsed, kernel, counters


def _measure_runner_overhead(prob):
    """Best-of-N inline vs pipeline timings and their agreement."""
    direct_s = float("inf")
    pipeline_s = float("inf")
    identical = True
    for __ in range(OVERHEAD_REPEATS):
        elapsed, kernel, counters = _run_direct(prob)
        direct_s = min(direct_s, elapsed)
        phases, result = _run_engine(prob)
        pipeline_s = min(pipeline_s, phases["link_total"])
        identical &= _equals_kernel(result, kernel, counters)
    return {
        "direct_s": direct_s,
        "pipeline_s": pipeline_s,
        "ratio": pipeline_s / direct_s if direct_s > 0 else float("inf"),
        "tolerance_ratio": OVERHEAD_TOLERANCE,
        "slack_s": OVERHEAD_SLACK_S,
        "within_tolerance": pipeline_s
        <= direct_s * OVERHEAD_TOLERANCE + OVERHEAD_SLACK_S,
        "matches_identical": bool(identical),
    }


def _equals_kernel(result, kernel, counters):
    """``link()``'s rows, order and distances (and candidate count) are the kernel's."""
    return (
        all(
            np.array_equal(got, want)
            for got, want in zip((result.rows_a, result.rows_b, result.record_distances), kernel)
        )
        and result.n_candidates == counters["pairs_unique"]
    )


def _run_engine(prob):
    """End-to-end current link()."""
    linker = CompactHammingLinker.record_level(threshold=THRESHOLD, k=K, seed=SEED)
    start = time.perf_counter()
    result = linker.link(prob.dataset_a, prob.dataset_b)
    elapsed = time.perf_counter() - start
    phases = dict(result.timings)
    phases["link_total"] = elapsed
    return phases, result


def _run_rule_aware(prob, rule):
    """One rule-aware ``link()`` beside the eager classification of its candidates."""
    linker = CompactHammingLinker.rule_aware(
        rule, k=DBLP_K, attribute_names=DBLP_NAMES, seed=SEED
    )
    start = time.perf_counter()
    result = linker.link(prob.dataset_a, prob.dataset_b)
    elapsed = time.perf_counter() - start

    encoder = linker.encoder
    matrix_a = encoder.encode_dataset(prob.dataset_a.value_rows())
    matrix_b = encoder.encode_dataset(prob.dataset_b.value_rows())
    blocker = RuleAwareBlocker(rule, encoder, k=DBLP_K, delta=linker.delta, seed=SEED)
    blocker.index(matrix_a)
    cand_a, cand_b = blocker.candidate_pairs(matrix_b)
    distances = encoder.attribute_distances(matrix_a, cand_a, matrix_b, cand_b)
    accepted = np.asarray(rule.evaluate(distances))
    identical = (
        np.array_equal(result.rows_a, cand_a[accepted])
        and np.array_equal(result.rows_b, cand_b[accepted])
        and list(result.attribute_distances) == list(distances)
        and all(
            np.array_equal(result.attribute_distances[name], dist[accepted])
            for name, dist in distances.items()
        )
    )
    return {
        "rule": str(rule),
        "link_total_s": elapsed,
        "match_s": result.timings["match"],
        "n_candidates": result.n_candidates,
        "n_matches": result.n_matches,
        "classify_distance_rows": int(result.counters["classify_distance_rows"]),
        "eager_distance_rows": result.n_candidates * len(rule.attributes()),
        "identical_to_eager": bool(identical),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on empty candidate stream or broken invariance (CI gate)",
    )
    args = parser.parse_args(argv)

    n = scaled(BASE_N)
    prob = build_linkage_problem(NCVRGenerator(), n, scheme_pl(), seed=SEED)

    clear_index_set_cache()
    baseline_phases, baseline_matches, baseline_candidates = _run_baseline(prob)

    clear_index_set_cache()
    engine_phases, engine_result = _run_engine(prob)

    # Invariance: link() is the match kernel — rows, order, distances.
    __, kernel, counters = _run_direct(prob)
    invariant = _equals_kernel(engine_result, kernel, counters)
    agrees_with_baseline = engine_result.matches == baseline_matches

    overhead = _measure_runner_overhead(prob)

    rule_n = scaled(RULE_BASE_N)
    rule_prob = build_linkage_problem(DBLPGenerator(), rule_n, scheme_ph(), seed=SEED)
    rule_aware = {name: _run_rule_aware(rule_prob, rule) for name, rule in RULES.items()}

    speedup = (
        baseline_phases["link_total"] / engine_phases["link_total"]
        if engine_phases["link_total"] > 0
        else float("inf")
    )
    payload = {
        "benchmark": "hotpaths",
        "dataset": "ncvr-pl",
        "n_records_per_side": n,
        "threshold": THRESHOLD,
        "k": K,
        "seed": SEED,
        "baseline": {
            "description": "pre-engine hot path: uncached per-record embed, "
            "dict-bucket indexing, materialise-all-then-unique candidates",
            "phases_s": baseline_phases,
            "n_candidates": baseline_candidates,
            "n_matches": len(baseline_matches),
        },
        "engine": {
            "description": "interned embed + one match kernel (join, in-place de-dup, blocked verify)",
            "phases_s": engine_phases,
            "n_candidates": engine_result.n_candidates,
            "n_matches": engine_result.n_matches,
            "counters": engine_result.counters,
        },
        "speedup_link_total": speedup,
        "pipeline_overhead": overhead,
        "rule_aware": {
            "dataset": "dblp-ph",
            "n_records_per_side": rule_n,
            "cells": rule_aware,
        },
        "matches_identical_to_kernel": bool(invariant),
        "matches_identical_to_baseline": bool(agrees_with_baseline),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(banner(f"hot-path engine @ n={n} per side"))
    phase_names = ["calibrate", "embed", "index", "candidates", "match", "link_total"]
    rows = []
    for name in phase_names:
        rows.append(
            [
                name,
                baseline_phases.get(name, float("nan")),
                engine_phases.get(name, float("nan")),
            ]
        )
    print(format_table(["phase", "baseline_s", "engine_s"], rows))
    print(f"speedup (link_total): {speedup:.2f}x")
    print(
        f"runner overhead: pipeline {overhead['pipeline_s']:.3f} s vs inline "
        f"{overhead['direct_s']:.3f} s ({overhead['ratio']:.3f}x)"
    )
    print(f"link() identical to HammingLSH.match: {invariant}")
    print(f"matches identical to baseline: {agrees_with_baseline}")
    print(
        format_table(
            ["rule-aware", "candidates", "matches", "distance_rows", "eager_rows", "== eager"],
            [
                [
                    name,
                    cell["n_candidates"],
                    cell["n_matches"],
                    cell["classify_distance_rows"],
                    cell["eager_distance_rows"],
                    str(cell["identical_to_eager"]),
                ]
                for name, cell in rule_aware.items()
            ],
        )
    )
    print(f"wrote {OUTPUT}")

    if args.check:
        if engine_result.n_candidates == 0:
            print("CHECK FAILED: empty candidate stream", file=sys.stderr)
            return 1
        if not invariant:
            print("CHECK FAILED: link() differs from HammingLSH.match", file=sys.stderr)
            return 1
        if not agrees_with_baseline:
            print("CHECK FAILED: engine matches differ from baseline", file=sys.stderr)
            return 1
        if not overhead["matches_identical"]:
            print("CHECK FAILED: pipeline matches differ from inline path", file=sys.stderr)
            return 1
        if not overhead["within_tolerance"]:
            print(
                "CHECK FAILED: stage-runner overhead "
                f"{overhead['ratio']:.3f}x exceeds {OVERHEAD_TOLERANCE:.2f}x "
                f"(+{OVERHEAD_SLACK_S}s slack)",
                file=sys.stderr,
            )
            return 1
        for name, cell in rule_aware.items():
            if cell["n_candidates"] == 0:
                print(f"CHECK FAILED: rule-aware {name}: no candidates", file=sys.stderr)
                return 1
            if not cell["identical_to_eager"]:
                print(
                    f"CHECK FAILED: rule-aware {name}: lazy classification differs "
                    "from the eager oracle",
                    file=sys.stderr,
                )
                return 1
            if cell["classify_distance_rows"] >= cell["eager_distance_rows"]:
                print(
                    f"CHECK FAILED: rule-aware {name}: measured "
                    f"{cell['classify_distance_rows']} attribute distances, the eager "
                    f"classifier measures {cell['eager_distance_rows']}",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
