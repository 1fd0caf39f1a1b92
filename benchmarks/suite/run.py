"""One command for every number: ``python benchmarks/suite/run.py``.

* ``--workload NAME`` (repeatable; default all four), ``--seed N``,
  ``--seconds S``, ``--trace [0|1]``, ``--out DIR``, ``--runs N``.
* One workload, one run: measured in this process; every metric is
  printed by name with its unit, and the last line of standard output is
  the driver's JSON object (``correct``, ``attempted``, ``failed``,
  ``metrics``) — with ``--trace 0`` the five end-to-end metrics the driver
  bounds (``spec.DRIVER``: aliases of this workload's own), with
  ``--trace 1`` every other metric, 0 where the workload bypasses a layer.
* Several workloads or ``--runs N``: each run is its own subprocess of
  this script (seeds ``seed .. seed+N-1``), and the collected records go
  to ``<out>/results.json`` for ``compare.py``.
* ``--selftest``: all four workloads at 1/100 size, checking the result
  schema and that BENCHMARK.json and ``spec.py`` agree.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _need_program() -> None:
    """Put ``src/`` on the path, or stop: there is nothing to measure."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no program to benchmark at {src / 'repro'}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="seconds one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run the traced staged replay (per-layer metrics)")
    parser.add_argument("--out", type=Path, default=SUITE_DIR / "out",
                        help="directory for result, trace and scratch files")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, at seeds seed..seed+runs-1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every record count (the selftest uses 0.01)")
    parser.add_argument("--selftest", action="store_true")
    return parser.parse_args(argv)


# -- one run, in this process ------------------------------------------------------


def run_one(args: argparse.Namespace, workload: str) -> dict[str, object]:
    """Measure one workload here and return its full record."""
    import harness
    import spec

    run = harness.Run(
        workload=workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale=args.scale, out_dir=args.out, process_start=PROCESS_START,
    )
    if workload in spec.LINK_WORKLOADS:
        import link as module
    elif workload == "serve-readonly":
        import serve_readonly as module
    else:
        import serve_ingest as module
    module.run(run)
    run.put("peak_rss_mb", harness.peak_rss_mb())
    return {
        "workload": workload,
        "trace": int(run.trace),
        "provenance": harness.provenance(run),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": run.metrics,
        "notes": run.notes,
    }


def driver_object(record: dict[str, object]) -> dict[str, object]:
    """The contract's last line: exactly the metrics the mode calls for."""
    import spec

    metrics: dict[str, dict[str, object]] = record["metrics"]  # type: ignore[assignment]
    workload: str = record["workload"]  # type: ignore[assignment]
    out = {}
    if record["trace"]:
        for metric in spec.TRACED:
            # A layer the workload bypasses did no work: that is a measured 0.
            value = metrics[metric.name]["value"] if metric.name in metrics else 0.0
            out[metric.name] = {"value": value, "unit": metric.unit}
    else:
        for alias in spec.DRIVER:
            out[alias.name] = {"value": metrics[alias.source[workload]]["value"],
                               "unit": alias.unit}
    finite = all(m["value"] is not None for m in out.values())
    return {
        "correct": record["failed"] == 0 and finite,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }


def print_record(record: dict[str, object]) -> None:
    metrics: dict[str, dict[str, object]] = record["metrics"]  # type: ignore[assignment]
    print(f"# {record['workload']}  {json.dumps(record['provenance'])}")
    for name, entry in metrics.items():
        detail = f"  (n={entry['n']}" if "n" in entry else ""
        if detail:
            detail += f", iqr={entry['iqr']:.4g})" if "iqr" in entry else ")"
        value = "not finite" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:44s} {value:>16s} {entry['unit']}{detail}")
    for key, note in record["notes"].items():  # type: ignore[union-attr]
        print(f"note {key}: {json.dumps(note)}")
    for failure in record["failures"]:  # type: ignore[union-attr]
        print(f"FAILED {failure}")
    print(f"attempted={record['attempted']} failed={record['failed']}")


def record_path(out: Path, workload: str, seed: int) -> Path:
    return out / f"run-{workload}-seed{seed}.json"


# -- several runs, each its own process ------------------------------------------------


def child_command(args: argparse.Namespace, workload: str, seed: int) -> list[str]:
    return [
        sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out), "--scale", str(args.scale),
    ]


def run_children(args: argparse.Namespace, workloads: list[str]) -> list[dict[str, object]]:
    """Run every (workload, seed) in a subprocess; collect the records."""
    records = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            done = subprocess.run(child_command(args, workload, seed),
                                  capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"run.py: {workload} seed {seed} exited {done.returncode}")
            record = json.loads(record_path(args.out, workload, seed).read_text(encoding="utf-8"))
            record["driver_line"] = json.loads(done.stdout.strip().splitlines()[-1])
            print_record(record)
            records.append(record)
    return records


# -- selftest --------------------------------------------------------------------------


def selftest(args: argparse.Namespace) -> int:
    """All four workloads, tiny, both modes; schema and name checks."""
    import spec

    started = time.perf_counter()
    problems: list[str] = []
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if contract != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.benchmark_json()")
    names = [m.name for m in (*spec.DRIVER, *spec.TRACED)] + list(spec.WORKLOADS)
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    args.scale, args.seconds, args.runs = 0.01, 1.0, 1
    args.out = args.out / "selftest"
    for trace in (0, 1):
        args.trace = trace
        for record in run_children(args, list(spec.WORKLOADS)):
            workload = record["workload"]
            line = record["driver_line"]
            wanted = spec.TRACED if trace else spec.DRIVER
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{workload}: driver line keys {sorted(line)}")
            if list(line["metrics"]) != [m.name for m in wanted]:
                problems.append(f"{workload} trace={trace}: metric names differ from the contract")
            if not line["attempted"] > 0:
                problems.append(f"{workload}: attempted is {line['attempted']}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{workload} trace={trace}: failed={line['failed']} "
                                f"{record['failures']}")
            if not trace:
                zero = [n for n, m in line["metrics"].items() if not (m["value"] or 0) > 0]
                problems += [f"{workload}: end-to-end {n} is not positive" for n in zero]
                continue
            measured = set(record["metrics"])
            listed = {m.name for m in spec.BY_NAME.values() if workload in m.workloads}
            if measured != listed:
                problems.append(f"{workload}: measured but unlisted {sorted(measured - listed)}, "
                                f"listed but unmeasured {sorted(listed - measured)}")
            gap = record["notes"].get("trace_self_time_gap", 1.0)
            if gap > 0.05:
                problems.append(f"{workload}: trace self times miss their root by {gap:.1%}")
    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}")
    print(f"selftest {'FAILED' if problems else 'ok'} in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    _need_program()
    args = parse_args(argv)
    args.out = args.out.resolve()
    if args.selftest:
        return selftest(args)
    import spec

    workloads = args.workload or list(spec.WORKLOADS)
    if len(workloads) == 1 and args.runs == 1:
        record = run_one(args, workloads[0])
        args.out.mkdir(parents=True, exist_ok=True)
        record_path(args.out, workloads[0], args.seed).write_text(
            json.dumps(record, indent=1, allow_nan=False), encoding="utf-8")
        print_record(record)
        print(json.dumps(driver_object(record), allow_nan=False))
        return 0
    records = run_children(args, workloads)
    results = args.out / "results.json"
    results.write_text(json.dumps({"runs": records}, indent=1, allow_nan=False),
                       encoding="utf-8")
    print(f"wrote {results}")
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
