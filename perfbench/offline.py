"""offline-wide-mem: time from a trace on disk to a checked plan.

The workload loads a CSV trace (k=10^3 items) into memory and solves it
with ``solve_dp_greedy`` defaults; Phase 2's per-package projection
dominates.

The traced run recomposes the same solve from the program's public
per-layer functions (the classic serial Phase-2 loop) and times each
call from here; the recomposed total must equal the untraced one bit
for bit.
"""

from __future__ import annotations

import gc
import json
import math
import time
from pathlib import Path

from common import (
    ALPHA, THETA, WIDE_ITEMS, GcPauses, cost_model, make_trace, median,
    peak_rss_mb,
)
from spans import SpanRecorder

WORKLOAD = "offline-wide-mem"


def setup(seed: int, work_dir: Path) -> Path:
    """Generate the trace and write it where the timed phase reads it."""
    from repro.trace.io import save_sequence

    return save_sequence(work_dir / "trace.csv", make_trace(WIDE_ITEMS, seed))


def _check(res, reference, totals, problems) -> None:
    """Output checks on one solve; appends a message per failure."""
    total = res.total_cost
    if not math.isfinite(total):
        problems.append(f"non-finite total {total!r}")
    elif reference is not None and total != reference:
        problems.append(f"total {total!r} != reference {reference!r}")
    elif totals and total != totals[0]:
        problems.append(f"total {total!r} differs between passes")


def plan_once(path: Path, model, reference, totals, problems) -> float:
    """One untraced pass: trace on disk -> checked DPGreedyResult."""
    from repro.core.dp_greedy import solve_dp_greedy
    from repro.trace.io import load_sequence

    t0 = time.perf_counter()
    seq = load_sequence(path)
    res = solve_dp_greedy(seq, model, theta=THETA, alpha=ALPHA)
    _check(res, reference, totals, problems)
    elapsed = time.perf_counter() - t0
    totals.append(res.total_cost)
    return elapsed


def traced_once(path: Path, model, rec: SpanRecorder):
    """One traced pass over the layers' public functions.

    Returns ``(total, counts, views)``; ``views`` are the DP inputs with
    their rate multipliers, for the cost-only probe.
    """
    from repro.cache.model import package_rate
    from repro.cache.optimal_dp import solve_optimal
    from repro.core.dp_greedy import serve_package, serve_singleton
    from repro.correlation.jaccard import correlation_stats
    from repro.correlation.packing import greedy_pair_packing
    from repro.trace.io import load_sequence

    projections = []
    views = []
    with rec.span("plan"):
        with rec.span("trace.load"):
            seq = load_sequence(path)
        project = seq.restrict_to_items

        def timed_restrict(items, mode="any"):
            # called by the single-sided greedy: a child span, so its time
            # is not counted twice inside core.dp_greedy.single_sided
            with rec.span("cache.model.restrict"):
                out = project(items, mode)
            projections.append((items, len(out)))
            return out

        object.__setattr__(seq, "restrict_to_items", timed_restrict)
        with rec.span("trace.validate"):
            seq.validate()
        with rec.span("correlation.stats"):
            stats = correlation_stats(seq, backend="sparse")
        with rec.span("correlation.packing"):
            plan = greedy_pair_packing(stats, THETA)
        reports = []
        for pkg in plan.packages:
            with rec.span("cache.model.group_view"):
                view = seq.group_view(pkg)
            rate = package_rate(len(pkg), ALPHA)
            with rec.span("cache.optimal_dp.solve"):
                dp = solve_optimal(view, model, build_schedule=False,
                                   rate_multiplier=rate)
            views.append((view, rate))
            with rec.span("core.dp_greedy.single_sided"):
                reports.append(serve_package(seq, pkg, model, ALPHA,
                                             dp_cost=dp.cost, co_view=view))
        for d in plan.singletons:
            with rec.span("cache.model.item_view"):
                view = seq.item_view(d)
            with rec.span("cache.optimal_dp.solve"):
                dp = solve_optimal(view, model, build_schedule=False)
            views.append((view, 1.0))
            reports.append(serve_singleton(seq, d, model, sub=view,
                                           dp_cost=dp.cost))
        total = sum(r.total for r in reports)

    scanned = len(seq) * len(projections)
    counts = {
        "correlation.packages": len(plan.packages),
        "correlation.singletons": len(plan.singletons),
        "cache.model.restrict_yield":
            sum(n for _, n in projections) / scanned if scanned else 0.0,
        "cache.optimal_dp.units": len(views),
        "cache.optimal_dp.events": sum(len(v) for v, _ in views),
        "core.dp_greedy.single_sided_decisions":
            sum(len(r.modes) for r in reports),
    }
    return total, counts, views


LAYER_SPANS = {
    "trace.load_s": "trace.load",
    "trace.validate_s": "trace.validate",
    "correlation.stats_s": "correlation.stats",
    "correlation.packing_s": "correlation.packing",
    "cache.model.restrict_s": "cache.model.restrict",
    "cache.model.group_view_s": "cache.model.group_view",
    "cache.model.item_view_s": "cache.model.item_view",
    "cache.optimal_dp.solve_s": "cache.optimal_dp.solve",
    "core.dp_greedy.single_sided_s": "core.dp_greedy.single_sided",
    "other_s": "plan",
}


def measure(seconds: float, path: Path, reference, traced: bool,
            spans_path: Path) -> dict:
    """The timed phase, in its own process so that generation does not
    set its peak RSS."""
    model = cost_model()
    problems, totals = [], []
    attempted = failed = 0
    start = time.perf_counter()
    if not traced:
        passes = []
        # another pass only if it should end within the run's seconds
        while len(passes) < 3 or (time.perf_counter() - start
                                  + median(passes) <= seconds):
            gc.collect()
            attempted += 1
            before = len(problems)
            passes.append(plan_once(path, model, reference, totals, problems))
            failed += len(problems) > before
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": {
                "plan_s": median(passes),
                "peak_rss_mb": peak_rss_mb(),
                "passes": len(passes),
            },
        }

    untraced, layers, pair_s = [], [], []
    while len(layers) < 2 or time.perf_counter() - start + median(pair_s) <= seconds:
        t_pair = time.perf_counter()
        before = len(problems)
        gc.collect()
        untraced.append(plan_once(path, model, reference, totals, problems))
        gc.collect()
        rec = SpanRecorder()
        with GcPauses() as pauses:
            total, counts, views = traced_once(path, model, rec)
        if total != totals[0]:
            problems.append(f"traced total {total!r} != untraced {totals[0]!r}")
        attempted += 2
        failed += len(problems) > before
        self_times = rec.self_times()
        row = {name: self_times.get(span, 0.0) for name, span in LAYER_SPANS.items()}
        row.update(counts)
        row["tracing.plan_s"] = sum(self_times.values())
        row["runtime.gc_pause_s"] = pauses.seconds
        layers.append(row)
        pair_s.append(time.perf_counter() - t_pair)

    from repro.cache.optimal_dp import optimal_cost

    # cost-only DP over the same inputs: the gap to solve_s is the price of
    # the decision history solve_optimal keeps
    t0 = time.perf_counter()
    for view, rate in views:
        optimal_cost(view, model, rate_multiplier=rate)
    cost_only = time.perf_counter() - t0
    rec.write(spans_path)

    metrics = {name: median([row[name] for row in layers]) for name in layers[0]}
    metrics["cache.optimal_dp.cost_only_s"] = cost_only
    metrics["tracing.overhead_s"] = metrics["tracing.plan_s"] - median(untraced)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics}


def record_references(seeds, out: Path) -> dict:
    """Solve each shipped seed once and write the totals to ``out``."""
    import shutil

    from common import ROOT

    refs = json.loads(out.read_text()) if out.is_file() else {}
    model = cost_model()
    work = ROOT / ".perfbench_work" / "references"
    for seed in seeds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        path = setup(seed, work)
        totals, problems = [], []
        plan_once(path, model, None, totals, problems)
        if problems:
            raise RuntimeError(problems)
        refs.setdefault(WORKLOAD, {})[str(seed)] = totals[0]
        print(WORKLOAD, seed, repr(totals[0]), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return refs


if __name__ == "__main__":
    # python3 perfbench/offline.py FIRST_SEED LAST_SEED: record reference
    # totals for those seeds into references.json (run on a known-good tree)
    import sys

    from common import add_src_path

    add_src_path()
    first, last = int(sys.argv[1]), int(sys.argv[2])
    record_references(range(first, last + 1),
                      Path(__file__).resolve().parent / "references.json")
