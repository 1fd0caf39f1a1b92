"""Compare two result sets: ``python benchmarks/suite/compare.py A.json B.json``.

``A`` is the baseline (the parent commit, or the first of two sets of the
same commit), ``B`` the change.  Each file is a ``results.json`` written
by ``run.py --runs N``.  One row per (end-to-end metric, workload): both
medians and quartile distances over the runs, the ratio B/A (base: A's
median), the bound from ``spec.py`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound.
``worse``       it is.
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the sets cannot tell — unless every run of B
                reads better than every run of A, which is ``ok``.

A bound is a share of A's median, except: ``pairs_completeness`` (an
absolute drop; it repeats exactly per seed, so runs are paired by seed
and the differences judged) and ``open_slo_rate_qps`` (rungs of the rate
ladder).

Exit status 1 on any ``worse`` or when B failed a larger share of its
operations than A; ``unresolved`` rows are printed and counted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import spec

Record = dict[str, object]
_LADDER = (0, *spec.OPEN_RATES)


def _runs(path: Path) -> dict[str, list[Record]]:
    """Records of a results file, grouped by workload, in seed order."""
    by_workload: dict[str, list[Record]] = {}
    for record in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=_seed)
    return by_workload


def _seed(record: Record) -> int:
    return record["provenance"]["seed"]  # type: ignore[index]


def _values(records: list[Record], name: str) -> list[float]:
    """The metric over the runs; a value that was not finite reads ``inf``."""
    values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]  # type: ignore[index]
    return [float("inf") if v is None else v for v in values]


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def judge(metric: spec.Metric, a: list[float], b: list[float], paired: bool) -> str:
    """``ok``, ``worse`` or ``unresolved``; ``paired`` says ``a[i]`` and
    ``b[i]`` ran the same seed."""
    assert metric.bound is not None
    sign = 1.0 if metric.better == "lower" else -1.0
    if max(sign * x for x in b) < min(sign * x for x in a):
        return "ok"
    if metric.kind == "steps":
        a, b = [_LADDER.index(int(x)) for x in a], [_LADDER.index(int(x)) for x in b]
    med_a, med_b = statistics.median(a), statistics.median(b)
    if metric.kind == "abs" and paired:
        moves = [y - x for x, y in zip(a, b)]
        spread, worsened = _spread(moves), sign * statistics.median(moves)
    elif metric.kind == "share":
        spread = max(_spread(a) / abs(med_a), _spread(b) / abs(med_b))
        worsened = sign * (med_b - med_a) / abs(med_a)
    else:
        spread, worsened = max(_spread(a), _spread(b)), sign * (med_b - med_a)
    if spread > metric.bound:
        return "unresolved"
    return "worse" if worsened > metric.bound else "ok"


def _failed_share(records: list[Record]) -> float:
    attempted = sum(r["attempted"] for r in records)  # type: ignore[misc]
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0  # type: ignore[misc]


def _bound_text(metric: spec.Metric) -> str:
    if metric.kind == "share":
        return f"{metric.bound:.0%}"
    return f"{metric.bound:g} rung" if metric.kind == "steps" else f"{metric.bound:g} abs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    runs_a, runs_b = _runs(args.baseline), _runs(args.change)

    print(f"{'workload':20s} {'metric':20s} {'A median':>12s} {'A iqr':>10s} "
          f"{'B median':>12s} {'B iqr':>10s} {'B/A':>7s} {'bound':>9s}  verdict")
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for workload in spec.WORKLOADS:
        if workload not in runs_a or workload not in runs_b:
            continue
        paired = [_seed(r) for r in runs_a[workload]] == [_seed(r) for r in runs_b[workload]]
        for metric in spec.END_TO_END:
            a, b = _values(runs_a[workload], metric.name), _values(runs_b[workload], metric.name)
            if workload not in metric.workloads or not a or not b:
                continue
            verdict = judge(metric, a, b, paired)
            counts[verdict] += 1
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:20s} {metric.name:20s} {med_a:12.5g} {_spread(a):10.3g} "
                  f"{med_b:12.5g} {_spread(b):10.3g} {med_b / med_a if med_a else 0.0:7.3f} "
                  f"{_bound_text(metric):>9s}  {verdict}")
        share_a, share_b = _failed_share(runs_a[workload]), _failed_share(runs_b[workload])
        if share_b > share_a:
            counts["worse"] += 1
            print(f"{workload:20s} failed/attempted rose from {share_a:.2e} to {share_b:.2e}  worse")
    print(f"{counts['ok']} ok, {counts['worse']} worse, {counts['unresolved']} unresolved "
          f"(ratios are B's median over A's)")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
