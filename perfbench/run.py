#!/usr/bin/env python3
"""DP_Greedy benchmark: one command, every end-to-end metric, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each exists):

* ``offline-wide-mem``  CSV trace, n=10^5, k=10^3, solved in memory;
* ``serve-open``        open-loop rate ladder into a ServingEngine.

The seed makes the inputs; the program only receives the generated
trace.  Set-up (generation and CSV write) runs five times and
reports its median as ``setup_s``.  The timed phase then runs in a
child process, so that input generation does not set ``peak_rss_mb``.
With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` a traced run reports the per-layer ones and
writes its spans under ``.perfbench_out/``.  Output checks failing makes
the command exit 1 with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import NUM_REQUESTS, ROOT, SRC, add_src_path, emit, median

SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
REFERENCES = Path(__file__).resolve().parent / "references.json"

# workload and metric names, with units, come from the contract file
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def reference_total(workload: str, seed: int):
    """Recorded total cost for a shipped seed, or ``None``."""
    refs = json.loads(REFERENCES.read_text())
    return refs.get(workload, {}).get(str(seed))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the timed phase, run in a child process
    p.add_argument("--phase", choices=("measure",), help=argparse.SUPPRESS)
    p.add_argument("--input", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _measure(args) -> dict:
    if args.workload == "serve-open":
        import serving

        return serving.measure(args.seconds, args.input, bool(args.trace),
                               args.spans)
    import offline

    return offline.measure(args.seconds, args.input,
                           reference_total(args.workload, args.seed),
                           bool(args.trace), args.spans)


def _setup(workload: str, seed: int, work: Path):
    """Run set-up ``SETUP_REPS`` times; returns (input path, seconds)."""
    if workload == "serve-open":
        import serving

        make = lambda d: serving.setup(seed, d)
    else:
        import offline

        make = lambda d: offline.setup(seed, d)
    # pay the program's import cost before the clock starts
    import repro.trace.io, repro.trace.workload  # noqa: F401

    times, path = [], None
    for rep in range(SETUP_REPS):
        d = work / f"setup{rep}"
        d.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        path = make(d)
        times.append(time.perf_counter() - t0)
    return path, times


def _child(args, path: Path, spans: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", "measure",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--input", str(path), "--spans", str(spans)]
    # one measured process on a small box: keep numeric libraries to one
    # thread so they do not contend with the interpreter
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"timed phase exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(workload: str, setup_s: float, m: dict) -> dict:
    """Every end-to-end metric, on every workload.

    Offline, every request of the trace gets its decision when the plan
    completes, so each request's latency is the plan's: p50 and p99 over
    requests are both the (median) plan latency, the planner always runs
    one plan at a time so ``p99_ms_light`` is that figure too, and
    ``max_rps`` is trace requests planned per second.
    """
    out = {"setup_s": setup_s, "plan_s": m["plan_s"],
           "peak_rss_mb": m["peak_rss_mb"]}
    if workload == "serve-open":
        out.update({k: m[k] for k in ("p50_ms", "p99_ms", "p99_ms_light", "max_rps")})
    else:
        ms = m["plan_s"] * 1e3
        out.update({"p50_ms": ms, "p99_ms": ms, "p99_ms_light": ms,
                    "max_rps": NUM_REQUESTS / m["plan_s"]})
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: program sources not found under {SRC}\n")
        return 2
    add_src_path()
    if args.phase == "measure":
        emit(_measure(args))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        path, setup_times = _setup(args.workload, args.seed, work)
        result = _child(args, path, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    m = result["metrics"]
    setup_s = median(setup_times) + m.get("engine_construct_s", 0.0)
    problems = result["problems"]
    attempted = result["attempted"]
    failed = result["failed"]
    if args.trace:
        units, metrics = PER_LAYER, {k: m.get(k, 0.0) for k in PER_LAYER}
    else:
        units, metrics = END_TO_END, _end_to_end(args.workload, setup_s, m)
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"{'failed_share':40s} {failed / attempted:16.6f} "
          f"({failed} of {attempted} operations)")
    for extra in ("passes", "knees", "knee_search"):
        if extra in m:
            print(f"{extra}: {m[extra]}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    emit({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
