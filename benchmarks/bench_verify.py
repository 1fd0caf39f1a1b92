"""Verification prefilter benchmark: sketch early-rejection vs the exact sweep.

Times the verify phase — candidate chunks in, matched pairs out — on the
DBLP PL cell embedded with the high-confidence Theorem-1 sizing
(``CalibrationConfig(r=0.05)``: ~1.5k-bit / 24-word record vectors, the
regime the paper's confidence analysis pays for and the one where
word-subset sketches have real headroom).  Writes ``BENCH_verify.json``
at the repo root:

* **verify off vs on** — best-of-N ``ThresholdVerifyStage.run`` over
  *pre-built* contexts (embeddings, index and candidate chunks are
  prepared once outside the timers), plain full-width sweep against the
  tiered sketch prefilter (:mod:`repro.hamming.sketch`).
* **byte identity** — the prefiltered run must reproduce the plain
  sweep's ``(rows_a, rows_b, distances)`` arrays exactly, and stay
  identical at ``n_jobs=2``.
* **counters** — per-tier rejection counts and the overall
  ``prefilter_reject_rate``.

``--check`` exits non-zero when any output differs or the prefilter
takes more than 1/0.75 of the plain sweep's time (the CI verify-smoke
gate runs ``--check --tiny``).  The floor was 2x (1.5x at ``--tiny``)
while the plain sweep gathered, XORed and popcounted a whole chunk at
once — 8.7 M pairs x 24 words, three 1.6 GB temporaries; since the sweep
runs in 32 768-pair blocks it reads 0.85 s where it read 2.57 s on the
same host, and the prefilter's 0.91 s no longer beats it (0.93x at
n=4000, 0.90x at ``--tiny``).  What the gate still guards is byte
identity and that the opt-in path is not a cliff; ROADMAP (2a) decides
whether it stays.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import scaled

from repro.core.config import CalibrationConfig
from repro.core.linker import CompactHammingLinker
from repro.data import DBLPGenerator, build_linkage_problem, scheme_pl
from repro.evaluation.reporting import banner, format_table
from repro.hamming.sketch import VerifyConfig
from repro.perf import ParallelConfig
from repro.pipeline.context import PipelineContext
from repro.pipeline.stages import ThresholdVerifyStage

#: Problem size per side (scaled by REPRO_BENCH_SCALE).  The r=0.05
#: sizing widens the LSH tables too, so 4000 records per side already
#: stream ~10M candidate pairs through the verify stage.
BASE_N = 4000
TINY_N = 1000
SEED = 7
#: Record-level threshold for the 24-word embedding: ~0.4% of the width,
#: matching the paper's tight-threshold regime (theta << m).
THRESHOLD = 10
K = 30
#: High-confidence calibration (Theorem 1 with r=0.05) — wide c-vectors.
CALIBRATION_R = 0.05
TIERS = (3, 8)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_verify.json"

#: Gate: the prefilter may cost at most 1/0.75 of the blocked plain sweep
#: (module docstring), at bench scale and at --tiny alike.
MIN_SPEEDUP = 0.75


def _prepare(prob):
    """Everything up to the verify stage, done once outside the timers."""
    linker = CompactHammingLinker.record_level(
        threshold=THRESHOLD,
        k=K,
        seed=SEED,
        calibration=CalibrationConfig(r=CALIBRATION_R),
    )
    encoder = linker.calibrate(prob.dataset_a, prob.dataset_b)
    rows_a = prob.dataset_a.value_rows()
    rows_b = prob.dataset_b.value_rows()
    matrix_a = encoder.encode_dataset(rows_a)
    matrix_b = encoder.encode_dataset(rows_b)
    lsh = linker._build_blocker(encoder)
    lsh.index(matrix_a)
    chunks = list(lsh.candidate_chunks(matrix_b))
    n_candidates = sum(int(chunk_a.size) for chunk_a, __ in chunks)
    return rows_a, rows_b, matrix_a, matrix_b, chunks, n_candidates


def _run_verify(prepared, verify, n_jobs=1):
    """One verify-stage run over a fresh context; returns (elapsed, ctx)."""
    rows_a, rows_b, matrix_a, matrix_b, chunks, __ = prepared
    ctx = PipelineContext(
        dataset_a=None,
        dataset_b=None,
        rows_a=rows_a,
        rows_b=rows_b,
        parallel=ParallelConfig(n_jobs=n_jobs),
        embedded_a=matrix_a,
        embedded_b=matrix_b,
        candidate_chunks=chunks,
    )
    stage = ThresholdVerifyStage(THRESHOLD, sort_pairs=True, verify=verify)
    start = time.perf_counter()
    stage.run(ctx)
    return time.perf_counter() - start, ctx


def _best_of(prepared, verify, repeats, n_jobs=1):
    best_s = float("inf")
    ctx = None
    for __ in range(repeats):
        elapsed, ctx = _run_verify(prepared, verify, n_jobs=n_jobs)
        best_s = min(best_s, elapsed)
    return best_s, ctx


def _identical(left, right):
    return (
        np.array_equal(left.out_a, right.out_a)
        and np.array_equal(left.out_b, right.out_b)
        and np.array_equal(left.record_distances, right.record_distances)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the verify gates fail (CI verify-smoke)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke scale: small problem, more repeats against timer noise",
    )
    args = parser.parse_args(argv)

    n = TINY_N if args.tiny else scaled(BASE_N)
    repeats = 5 if args.tiny else 3

    prob = build_linkage_problem(DBLPGenerator(), n, scheme_pl(), seed=SEED)
    prepared = _prepare(prob)
    n_candidates = prepared[5]
    n_words = int(prepared[2].words.shape[1])

    config = VerifyConfig(tiers=TIERS)
    plain_s, plain_ctx = _best_of(prepared, None, repeats)
    sketch_s, sketch_ctx = _best_of(prepared, config, repeats)
    __, sketch_jobs2_ctx = _run_verify(prepared, config, n_jobs=2)

    identical = _identical(plain_ctx, sketch_ctx)
    identical_jobs2 = _identical(plain_ctx, sketch_jobs2_ctx)
    speedup = plain_s / sketch_s if sketch_s > 0 else float("inf")
    counters = {
        key: value
        for key, value in sketch_ctx.counters.items()
        if key.startswith("pairs_") or key == "prefilter_reject_rate"
    }

    payload = {
        "benchmark": "verify",
        "dataset": "dblp-pl",
        "n_records_per_side": n,
        "threshold": THRESHOLD,
        "k": K,
        "calibration_r": CALIBRATION_R,
        "n_words": n_words,
        "seed": SEED,
        "tiny": bool(args.tiny),
        "n_candidates": n_candidates,
        "n_matches": int(plain_ctx.out_a.size),
        "tiers": list(TIERS),
        "block_rows": config.block_rows,
        "plain_sweep_s": plain_s,
        "prefilter_s": sketch_s,
        "verify_speedup": speedup,
        "matches_identical": bool(identical and identical_jobs2),
        "matches_identical_jobs2": bool(identical_jobs2),
        "counters": counters,
        "gates": {"min_verify_speedup": MIN_SPEEDUP},
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(banner(f"verification prefilter @ n={n} per side ({n_words} words)"))
    print(
        format_table(
            ["metric", "value"],
            [
                ["candidate pairs", n_candidates],
                ["matches", int(plain_ctx.out_a.size)],
                ["plain sweep (s)", f"{plain_s:.4f}"],
                ["prefilter (s)", f"{sketch_s:.4f}"],
                ["speedup", f"{speedup:.2f}x"],
                ["reject rate", f"{counters.get('prefilter_reject_rate', 0.0):.1%}"],
            ],
        )
    )
    tier_rows = [
        [key, int(counters[key])]
        for key in sorted(counters)
        if key.startswith("pairs_rejected_t") or key == "pairs_exact"
    ]
    print(format_table(["counter", "pairs"], tier_rows))
    print(f"matches identical (n_jobs 1 and 2): {identical and identical_jobs2}")
    print(f"wrote {OUTPUT}")

    if args.check:
        if not (identical and identical_jobs2):
            print(
                "CHECK FAILED: prefiltered matches differ from the plain sweep",
                file=sys.stderr,
            )
            return 1
        if speedup < MIN_SPEEDUP:
            print(
                f"CHECK FAILED: verify speedup only {speedup:.2f}x "
                f"(need >= {MIN_SPEEDUP}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
