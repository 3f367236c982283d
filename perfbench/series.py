#!/usr/bin/env python3
"""Run the benchmark over several seeds and record every result.

    python3 perfbench/series.py --seeds 1-10 --out runs.jsonl [--trace 0|1] \
        [--against OTHER_CHECKOUT --against-out other.jsonl]

Every workload runs for every seed, each run for ``run_seconds``.  Each
line of the output is one run: workload, seed, trace flag, the git
SHA of the checkout (when it is a git work tree) and the result object
the benchmark printed.  With ``--against`` the same seeds also run in a
second checkout, alternating which side goes first, which is the pairing
``compare.py`` expects.  The summary printed at the end gives, for each
workload and metric, the median and the interquartile spread as a share
of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec(path: Path) -> dict:
    return json.loads((path / "BENCHMARK.json").read_text())


def git_sha(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def seeds_of(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec(root)["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "sha": git_sha(root), "exit": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result}


def spread(values):
    """Interquartile range over the median (``statistics.quantiles``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(records) -> None:
    by = {}
    for rec in records:
        if rec["result"] is None:
            continue
        for name, m in rec["result"]["metrics"].items():
            by.setdefault((rec["workload"], name), []).append(m["value"])
    for (workload, name), values in sorted(by.items()):
        line = f"{workload:22s} {name:34s} median {statistics.median(values):14.6g}"
        if len(values) >= 2:
            line += f"  spread {spread(values):7.2%}  n={len(values)}"
        print(line)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--against", type=Path, help="second checkout to alternate with")
    p.add_argument("--against-out", type=Path)
    args = p.parse_args(argv)
    if args.against is not None and args.against_out is None:
        p.error("--against needs --against-out")

    bench = spec(ROOT)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = [(ROOT, args.out)]
    if args.against is not None:
        sides.append((args.against.resolve(), args.against_out))
    records = {out: [] for _, out in sides}
    for workload in workloads:
        for k, seed in enumerate(seeds_of(args.seeds)):
            order = sides if k % 2 == 0 else sides[::-1]
            for root, out in order:
                rec = run_one(root, workload, seed, seconds, args.trace)
                records[out].append(rec)
                with out.open("a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
                ok = rec["result"] is not None and rec["result"]["correct"]
                print(f"{workload} seed={seed} {root.name}: exit={rec['exit']} "
                      f"correct={ok} wall={rec['wall_s']:.1f}s", flush=True)
    for _, out in sides:
        print(f"== {out}")
        summarize(records[out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
