"""Compare the benchmark runs of two trees.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each file holds the ``--out`` records of ``perfbench/run.py`` for one tree.
Runs are paired by workload and seed.  For every workload and end-to-end
metric of ``BENCHMARK.json`` this prints one row with each side's median
and quartiles and a verdict:

- ``gain``: at least 10 pairs, run in alternating order (each tree ran
  first in half of the pairs, give or take one), the change wins at least
  9 in 10 of them (ties count for neither side), and the medians differ by
  more than the distance between the parent's quartiles;
- ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
- ``unresolved``: either side's quartile spread is wider than the bound,
  unless every change run is better than every parent run;
- ``no regression``: none of the above.

A gain does not count when the change fails more ops than the parent.  The
output digests of runs with the same seed are compared too: the same
input must give the same CLI bytes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, int], dict]:
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool, alternating: bool) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = -sign * (cm - pm) / pm
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (len(parent) >= MIN_PAIRS and alternating and wins >= WIN_SHARE * len(parent)
            and sign * (cm - pm) > p3 - p1 and not more_failures):
        return "gain", wins
    if worse > bound:
        return "REGRESSION", wins
    if ((p3 - p1) / pm > bound or (c3 - c1) / cm > bound) and not all_better:
        return "unresolved", wins
    return "no regression", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("error: no workload and seed was run on both sides", file=sys.stderr)
        return 2
    regressions = 0
    print(f"{'workload':<18} {'metric':<12} {'unit':<6} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6}  verdict")
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        parent_first = sum(p["started_at"] < c["started_at"] for p, c in pairs)
        alternating = abs(2 * parent_first - len(pairs)) <= 1
        more_failures = sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs)
        for m in metrics:
            pv = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
            cv = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            v, wins = verdict(pv, cv, m["better"], m["bound"], more_failures, alternating)
            regressions += v == "REGRESSION"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{workload:<18} {m['name']:<12} {m['unit']:<6} "
                  f"{pm:>12.4f} [{p1:>9.4f}, {p3:>9.4f}] {cm:>12.4f} [{c1:>9.4f}, {c3:>9.4f}] "
                  f"{(cm - pm) / pm:>+8.1%} {wins:>2}/{len(pairs):<3}  {v}")
        same = sum(p["outputs_sha256"] == c["outputs_sha256"] for p, c in pairs)
        failed = (sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs))
        print(f"{workload:<18} {len(pairs)} pairs, parent ran first in {parent_first}; "
              f"output digests identical for {same} of {len(pairs)} seeds; "
              f"failed ops {failed[0]} -> {failed[1]}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
