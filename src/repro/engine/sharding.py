"""Sharded DP_Greedy solves for out-of-core traces.

:func:`~repro.core.dp_greedy.solve_dp_greedy` fans Phase 2 out one
serving unit at a time.  For traces that live in a
:class:`~repro.trace.store.TraceStore` that granularity is wasteful: a
ten-million-request trace has thousands of tiny units, and per-unit
dispatch overhead (futures, pickles, memo probes in the parent) starts
to dominate.  This module groups the plan's units into a handful of
**shards** -- balanced by carried-request count, never splitting a
package -- and dispatches each shard as one
``("shard", (spec, ...))`` unit through the resilient dispatcher of
:mod:`repro.engine.resilience`, so retries, timeouts, pool degradation,
chaos injection, and crash-safe checkpointing all apply per shard.

Workers receive the *store path*, not a pickled request list:
:class:`~repro.trace.store.StoreSequence` reduces to
``(path, mmap)`` and every worker re-opens the memory-mapped columns,
so spawning a process pool over a 10M-request trace ships a few dozen
bytes per worker instead of gigabytes.

Determinism: a shard solves its units with the exact per-unit serves of
the unsharded path, reports are zipped back onto their plan-order unit
indices, and the final ``total`` is the same left-to-right
``sum((r.total for r in reports), 0.0)`` -- bit-identical to
``solve_dp_greedy`` for every backend, worker count, and shard count.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache import compiled_dp
from ..cache.model import CostModel, RequestSequence
from ..core.dp_greedy import DPGreedyResult, GroupReport, _null_timer
from ..correlation.jaccard import correlation_stats
from ..correlation.packing import (
    PackingPlan,
    greedy_group_packing,
    greedy_pair_packing,
)
from ..obs.telemetry import H_JIT, Telemetry, active as active_telemetry
from ..obs.tracing import maybe_span
from .memo import SolverMemo, get_default_memo
from .parallel import (
    EngineStats,
    ShardResult,
    _memo_probe,
    _plan_units,
    _resolve_backend,
    _unit_label,
    _unit_sizes,
)
from .resilience import ResilienceConfig, dispatch_resilient

__all__ = ["shard_by_items", "solve_dp_greedy_sharded"]

#: Checkpoint experiment id of the sharded driver (see
#: :func:`repro.experiments.base.sweep_checkpoint`).
SHARD_CHECKPOINT_ID = "dp_greedy_sharded"


def _lpt_partition(sizes: Sequence[int], shards: int) -> List[List[int]]:
    """Longest-processing-time partition of unit indices into at most
    ``shards`` balanced groups.

    Deterministic: units are placed largest-first (ties by index) onto
    the least-loaded shard (ties by shard number), and each group is
    returned in ascending unit-index order -- i.e. plan order -- so a
    shard serves its units in the same relative order as the unsharded
    loop.  Empty groups are dropped.
    """
    import heapq

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    groups: List[List[int]] = [[] for _ in range(shards)]
    heap = [(0, j) for j in range(shards)]
    heapq.heapify(heap)
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for i in order:
        load, j = heapq.heappop(heap)
        groups[j].append(i)
        # empty units still cost a dispatch slot: weigh them as 1
        heapq.heappush(heap, (load + max(int(sizes[i]), 1), j))
    return [sorted(g) for g in groups if g]


def shard_by_items(
    seq: RequestSequence,
    shards: int,
    *,
    plan: Optional[PackingPlan] = None,
) -> List[Tuple[tuple, ...]]:
    """Partition ``seq``'s serving units into ``shards`` balanced shards.

    With a :class:`~repro.correlation.packing.PackingPlan` the shard
    members are the plan's serving units -- whole packages and
    singletons -- so package boundaries are always respected: a package
    is one indivisible unit and lands entirely inside one shard.
    Without a plan every item is its own singleton unit.

    Balancing is longest-processing-time over each unit's carried
    request count (from the sequence's cached per-item projections), so
    shard wall-times stay within a factor of ~4/3 of optimal.  Returns
    a list of unit-spec tuples -- each directly dispatchable as one
    ``("shard", specs)`` unit -- with units in plan order inside every
    shard.  Fewer than ``shards`` tuples come back when there are fewer
    units than shards.
    """
    if plan is not None:
        units = _plan_units(plan)
    else:
        units = [("singleton", int(d)) for d in sorted(seq.items)]
    sizes = _unit_sizes(seq, units)
    return [
        tuple(units[i] for i in group)
        for group in _lpt_partition(sizes, shards)
    ]


# ---------------------------------------------------------------------------
# checkpoint (de)serialisation: GroupReports <-> JSON payloads
# ---------------------------------------------------------------------------
def _report_to_json(report: GroupReport) -> dict:
    """JSON-safe encoding of a cost-only :class:`GroupReport`.

    Floats survive exactly (JSON emits the shortest round-tripping
    decimal), so a resumed solve reproduces the original total bit for
    bit.  Schedules are not serialised -- the sharded driver is
    cost-only, matching the memo's contract.
    """
    return {
        "group": sorted(int(d) for d in report.group),
        "package_cost": report.package_cost,
        "single_sided_cost": report.single_sided_cost,
        "num_cooccurrence": report.num_cooccurrence,
        "num_single_sided": report.num_single_sided,
        "modes": [[t, m, c] for t, m, c in report.modes],
        "attribution": (
            None
            if report.attribution is None
            else [[t, a, c] for t, a, c in report.attribution]
        ),
    }


def _report_from_json(payload: dict) -> GroupReport:
    attribution = payload.get("attribution")
    return GroupReport(
        group=frozenset(int(d) for d in payload["group"]),
        package_cost=float(payload["package_cost"]),
        single_sided_cost=float(payload["single_sided_cost"]),
        num_cooccurrence=int(payload["num_cooccurrence"]),
        num_single_sided=int(payload["num_single_sided"]),
        modes=tuple(
            (float(t), str(m), float(c)) for t, m, c in payload["modes"]
        ),
        attribution=(
            None
            if attribution is None
            else tuple((float(t), str(a), float(c)) for t, a, c in attribution)
        ),
    )


def solve_dp_greedy_sharded(
    seq: RequestSequence,
    model: CostModel,
    *,
    theta: float,
    alpha: float,
    shards: Optional[int] = None,
    packing: str = "pairs",
    max_group_size: int = 3,
    similarity: str = "sparse",
    plan: Optional[PackingPlan] = None,
    workers: Optional[int] = None,
    pool: Optional[str] = None,
    memo: "SolverMemo | bool | None" = None,
    obs: "object | None" = None,
    tracer: "object | None" = None,
    resilience: "ResilienceConfig | bool | None" = None,
    dp_backend: str = "sparse",
    checkpoint: "object | None" = None,
    resume: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> DPGreedyResult:
    """Run DP_Greedy with Phase 2 sharded over the resilient dispatcher.

    Semantically identical to
    :func:`~repro.core.dp_greedy.solve_dp_greedy` -- same Phase 1, same
    per-unit serves, bit-identical ``total_cost`` -- but Phase 2 groups
    the plan's units into ``shards`` balanced shards
    (:func:`shard_by_items`; default: one per CPU) and dispatches each
    as one unit through
    :func:`~repro.engine.resilience.dispatch_resilient`, so retries,
    timeouts, process→thread→serial degradation, ``on_unit_error``
    policies, and chaos injection apply per *shard*.  With a
    store-backed sequence (:meth:`repro.trace.store.TraceStore.open`)
    process-pool workers receive the store *path* and re-mmap the
    columns, never a pickled request list.

    The driver is cost-only (no schedules).  ``obs=`` works as in
    ``solve_dp_greedy``: attribution is requested from every unit and
    the merged ledger/metrics/engine counters reconcile across shards
    into one report.

    Parameters beyond ``solve_dp_greedy``'s
    ------------------------------------------
    shards:
        Shard count; ``None`` uses ``os.cpu_count()``.  Shards never
        split a package.
    checkpoint / resume:
        Crash-safe per-shard checkpointing via
        :func:`repro.experiments.base.sweep_checkpoint` (a directory, a
        ``.jsonl`` path, or a live
        :class:`~repro.experiments.base.SweepCheckpoint`).  Every
        completed shard's reports are fsynced as they land -- including
        shards recovered on a degraded pool rung -- and ``resume=True``
        replays them instead of re-solving, reproducing the original
        floats bit for bit.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` hub (``None``
        picks up any process-wide hub installed via
        :func:`repro.obs.telemetry.install`, e.g. by the CLI's
        ``--progress``/``--prom``).  Per-shard dispatch and inner
        per-unit solve latencies land in its histograms, shard
        completions/retries/stalls in its progress board, and shard
        workers ship resource peaks back; an un-started hub is started
        for the duration of this solve.  Strictly observation-only.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if dp_backend not in ("sparse", "dense", "batched", "compiled", "auto"):
        raise ValueError(f"unknown DP backend {dp_backend!r}")
    seq.validate()
    observe = obs is not None
    timed = obs.timers.time if observe else _null_timer
    span_mark = tracer.mark() if tracer is not None else 0
    tele = telemetry if telemetry is not None else active_telemetry()
    tele_owned = tele is not None and not tele.started
    if tele_owned:
        tele.start()
    if tele is not None:
        tele.begin_run()
        stalls_before = tele.board.stalls
    try:
        return _solve_sharded_inner(
            seq, model, theta=theta, alpha=alpha, shards=shards,
            packing=packing, max_group_size=max_group_size,
            similarity=similarity, plan=plan, workers=workers, pool=pool,
            memo=memo, obs=obs, tracer=tracer, resilience=resilience,
            dp_backend=dp_backend, checkpoint=checkpoint, resume=resume,
            tele=tele,
            stalls_before=stalls_before if tele is not None else 0,
            timed=timed, span_mark=span_mark, observe=observe,
        )
    finally:
        if tele_owned:
            tele.stop()


def _solve_sharded_inner(
    seq, model, *, theta, alpha, shards, packing, max_group_size, similarity,
    plan, workers, pool, memo, obs, tracer, resilience, dp_backend,
    checkpoint, resume, tele, stalls_before, timed, span_mark, observe,
) -> DPGreedyResult:

    # -- Phase 1: identical to solve_dp_greedy ---------------------------
    with timed("phase1.similarity"), maybe_span(
        tracer, "phase1.similarity", cat="phase1", backend=similarity
    ):
        stats = correlation_stats(seq, backend=similarity)
    ran_join = plan is None
    with timed("phase1.packing"), maybe_span(
        tracer, "phase1.packing", cat="phase1"
    ):
        if plan is not None:
            plan_items = {d for p in plan.packages for d in p} | set(plan.singletons)
            if plan_items != set(seq.items):
                raise ValueError(
                    "externally supplied plan does not cover the sequence's items"
                )
        elif packing == "pairs":
            plan = greedy_pair_packing(stats, theta)
        elif packing == "groups":
            plan = greedy_group_packing(stats, theta, max_group_size)
        else:
            raise ValueError(f"unknown packing mode {packing!r}")
    if observe and ran_join:
        obs.counters.absorb(stats.join_counters(theta), prefix="phase1.")
        obs.counters.set("phase1.similarity_backend", similarity)

    # -- memo probe in the parent: hits never enter a shard --------------
    if memo is True:
        memo_obj: Optional[SolverMemo] = get_default_memo()
    elif memo in (None, False):
        memo_obj = None
    elif isinstance(memo, SolverMemo):
        memo_obj = memo
    else:
        raise TypeError("memo must be a SolverMemo, True, False, or None")

    units = _plan_units(plan)

    # resolve "auto" / degrade an unavailable "compiled" exactly like
    # serve_plan, and warm the JIT up in the parent so shard workers hit
    # the on-disk numba cache
    compiled_fb_before = compiled_dp.fallback_count()
    dp_backend = compiled_dp.resolve_backend(dp_backend, len(units))
    if dp_backend == "compiled":
        if not compiled_dp.available():
            compiled_dp.note_fallback("solve_dp_greedy_sharded")
            dp_backend = "sparse"
        else:
            jit_seconds = compiled_dp.warm_up()
            if tele is not None and jit_seconds > 0.0:
                tele.record(H_JIT, jit_seconds)

    all_sizes = _unit_sizes(seq, units)
    reports: List[Optional[GroupReport]] = [None] * len(units)
    pending: List[int] = []
    miss_keys: Dict[int, bytes] = {}
    hits = 0
    if memo_obj is not None:
        for idx, spec in enumerate(units):
            with maybe_span(
                tracer, "engine.memo_probe", cat="engine", unit=_unit_label(spec)
            ) as span:
                report, key = _memo_probe(
                    seq, spec, model, alpha, memo_obj, observe
                )
                span.set("memo", "hit" if report is not None else "miss")
            if report is not None:
                reports[idx] = report
                hits += 1
            else:
                pending.append(idx)
                miss_keys[idx] = key
    else:
        pending = list(range(len(units)))

    # -- shard the pending units -----------------------------------------
    if shards is None:
        shards = max(1, os.cpu_count() or 1)
    pending_sizes = [all_sizes[i] for i in pending]
    shard_groups = [
        [pending[i] for i in group]
        for group in _lpt_partition(pending_sizes, shards)
    ] if pending else []
    shard_specs: List[Tuple[tuple, ...]] = [
        tuple(units[i] for i in group) for group in shard_groups
    ]

    # -- checkpoint: replay completed shards, record new ones ------------
    from ..experiments.base import sweep_checkpoint

    ckpt = sweep_checkpoint(checkpoint, SHARD_CHECKPOINT_ID, resume)
    points = [
        {"shard": pos, "units": [_unit_label(s) for s in specs]}
        for pos, specs in enumerate(shard_specs)
    ]
    resolved: Dict[int, ShardResult] = {}
    if ckpt is not None:
        for pos in range(len(shard_specs)):
            payload = ckpt.get(points[pos])
            if payload is not None:
                resolved[pos] = ShardResult(
                    reports=tuple(
                        _report_from_json(r) for r in payload["reports"]
                    )
                )
    dispatch = {
        pos: ("shard", shard_specs[pos])
        for pos in range(len(shard_specs))
        if pos not in resolved
    }

    pending_nodes = sum(pending_sizes)
    workers_used, kind = _resolve_backend(
        workers, pending_nodes, len(dispatch), pool
    )
    # shards retry by default: resilience=None/False means the stock
    # ResilienceConfig here, not NO_RESILIENCE
    config = (
        ResilienceConfig()
        if resilience is None or resilience is False
        else ResilienceConfig.coerce(resilience)
    )

    def on_result(pos: int, shard: ShardResult) -> None:
        resolved[pos] = shard
        if ckpt is not None:
            ckpt.record(
                points[pos],
                {"reports": [_report_to_json(r) for r in shard.reports]},
            )

    res_counters = None
    if dispatch:
        with timed("phase2.serve"), maybe_span(
            tracer,
            "engine.dispatch",
            cat="engine",
            pool=kind,
            workers=workers_used,
            dispatched=len(dispatch),
            shards=len(shard_specs),
        ):
            _results, res_counters = dispatch_resilient(
                kind=kind,
                workers=workers_used,
                seq=seq,
                model=model,
                alpha=alpha,
                build_schedules=False,
                attribute=observe,
                units=dispatch,
                tracer=tracer,
                config=config,
                dp_backend=dp_backend,
                on_result=on_result,
                telemetry=tele,
            )

    # -- zip shard reports back onto plan-order unit indices -------------
    for pos, group in enumerate(shard_groups):
        shard = resolved.get(pos)
        if shard is None:  # whole shard skipped by the resilience layer
            continue
        for unit_idx, report in zip(group, shard.reports):
            reports[unit_idx] = report

    if memo_obj is not None:
        for idx in pending:
            if reports[idx] is None:
                continue
            memo_obj.put(
                miss_keys[idx],
                reports[idx].package_cost,
                attribution=reports[idx].attribution if observe else None,
            )

    units_failed = sum(1 for idx in pending if reports[idx] is None)
    engine_stats = EngineStats(
        units=len(units),
        packages=len(plan.packages),
        singletons=len(plan.singletons),
        workers=workers_used,
        pool=kind,
        dispatched=len(pending),
        memo_hits=hits,
        memo_misses=len(pending) if memo_obj is not None else 0,
        retries=res_counters.retries if res_counters else 0,
        timeouts=res_counters.timeouts if res_counters else 0,
        pool_fallbacks=res_counters.pool_fallbacks if res_counters else 0,
        units_failed=units_failed,
        stalls=(tele.board.stalls - stalls_before) if tele is not None else 0,
        shards=len(shard_specs),
        compiled_units=len(pending) if dp_backend == "compiled" else 0,
        compiled_fallbacks=compiled_dp.fallback_count() - compiled_fb_before,
        dp_backend=dp_backend,
    )

    final_reports = [r for r in reports if r is not None]
    total = sum((r.total for r in final_reports), 0.0)
    if observe:
        obs.finalize(
            seq,
            final_reports,
            total,
            engine_stats=engine_stats,
            memo=memo_obj,
            spans=tracer.aggregate(since=span_mark) if tracer is not None else None,
            telemetry=tele,
        )
    return DPGreedyResult(
        plan=plan,
        stats=stats,
        reports=tuple(final_reports),
        total_cost=total,
        denominator=seq.total_item_requests(),
        theta=theta,
        alpha=alpha,
        engine_stats=engine_stats,
    )
