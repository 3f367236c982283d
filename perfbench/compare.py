#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are ``series.py`` output over the same seeds (ideally one
``series.py --against`` invocation, which alternates which side runs
first).  Runs pair up by workload and seed.  For every workload and
end-to-end metric of ``BENCHMARK.json`` one row gives each side's median
and quartiles and a verdict:

* ``gain``        the change wins at least 9/10 of the pairs (ties count
                  for neither), its median is better by more than the
                  parent's interquartile range, and no more operations
                  failed than at the parent;
* ``unresolved``  either side's spread (IQR over median) exceeds the
                  metric's bound, unless every change run reads better
                  than every parent run;
* ``regression``  the change's median is worse than the parent's by more
                  than the bound;
* ``within``      none of the above.

Exits 1 when any row is a regression or any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path):
    """``{(workload, seed): result}`` of the untraced runs in ``path``."""
    runs = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric: dict, parent, change, failed_p: int, failed_c: int):
    """``(verdict, wins)`` for one metric of one workload."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    q1p, mp, q3p = quartiles(parent)
    q1c, mc, q3c = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    if (wins >= 0.9 * len(parent) and better(mc, mp) and abs(mc - mp) > q3p - q1p
            and failed_c <= failed_p):
        return "gain", wins
    bound = metric["bound"]
    spread = max((q3p - q1p) / mp, (q3c - q1c) / mc)
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return "unresolved", wins
    worse = (mc - mp) / mp if lower else (mp - mc) / mp
    return ("regression" if worse > bound else "within"), wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    status = 0
    print(f"{'workload':22s} {'metric':14s} {'parent q1/median/q3':>34s} "
          f"{'change q1/median/q3':>34s} {'wins':>6s}  verdict")
    for w in spec["workloads"]:
        seeds = sorted(s for (name, s) in parent if name == w["name"]
                       and (name, s) in change)
        if not seeds:
            print(f"{w['name']:22s} (no paired runs)")
            continue
        parent_runs = [parent[(w["name"], s)] for s in seeds]
        change_runs = [change[(w["name"], s)] for s in seeds]
        if not all(r is not None and r["correct"] for r in parent_runs + change_runs):
            print(f"{w['name']:22s} INCORRECT RUN in one of the sets")
            status = 1
            continue
        failed_p = sum(r["failed"] for r in parent_runs)
        failed_c = sum(r["failed"] for r in change_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent_runs]
            cv = [r["metrics"][name]["value"] for r in change_runs]
            v, wins = verdict(metric, pv, cv, failed_p, failed_c)
            status |= v == "regression"
            fmt = lambda vs: "/".join(f"{x:.4g}" for x in quartiles(vs))
            print(f"{w['name']:22s} {name:14s} {fmt(pv):>34s} {fmt(cv):>34s} "
                  f"{wins:>3d}/{len(seeds):<2d}  {v}")
        print(f"{w['name']:22s} {'failed ops':14s} {failed_p:>34d} {failed_c:>34d}")
    return status


if __name__ == "__main__":
    sys.exit(main())
