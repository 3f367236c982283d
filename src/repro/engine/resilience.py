"""Fault-tolerant dispatch: the one route every Phase-2 unit takes.

:func:`~repro.engine.parallel.serve_plan` (and through it
:func:`~repro.core.dp_greedy.solve_dp_greedy`) hands its units to
:func:`dispatch_resilient`, which runs them on a serial, thread, or
process rung.  With the default
:data:`NO_RESILIENCE` config each unit runs once and the first failure
surfaces; opting in (``resilience=True`` or a :class:`ResilienceConfig`)
adds the retry/timeout/degradation shape a production serving stack
uses, so one crashed worker (``BrokenProcessPool``), one hung DP solve,
or one corrupted unit result no longer aborts a multi-hour sweep:

* **per-unit futures**, at most ``workers`` in flight, so a single
  unit's failure is *that unit's* problem, not the batch's;
* **bounded retry with exponential backoff + jitter**: a failed or
  timed-out unit is re-dispatched up to ``retries`` times (solves are
  pure, so a retried unit returns the bit-identical report);
* **pool degradation**: a broken process pool (worker death,
  initializer failure) falls back process → thread → serial,
  re-dispatching only the unfinished units -- completed
  ``GroupReport``s and memo entries are never recomputed;
* **result auditing**: a unit report with a non-finite cost is treated
  as corrupt and retried;
* **an error taxonomy** (:mod:`repro.errors`) carrying unit labels and
  attempt counts, so the failure that finally surfaces says *which*
  unit died *how many times*, not just where a recurrence indexed.

Everything is observable: ``engine.retry`` / ``engine.pool_fallback`` /
``engine.unit_failed`` spans land in the tracer, and the
``retries`` / ``timeouts`` / ``pool_fallbacks`` / ``units_failed``
counters ride :class:`~repro.engine.parallel.EngineStats` into the v2
metrics schema as ``engine.*`` counters.

Semantics worth pinning down:

* The per-unit timeout is measured from dispatch, and the dispatcher
  keeps at most ``workers`` units in flight so dispatch coincides with
  execution start -- queue wait never eats a unit's budget.  A
  timed-out future is cancelled if still queued and *abandoned* if
  running (Python pools cannot preempt); an abandoned future keeps
  occupying its worker until it finishes on its own, so it counts
  against dispatch capacity.  The serial rung cannot time out (there is
  nothing to abandon it from).
* Retry attempt counts are charged on *unit* failures only.  When a
  whole pool breaks, in-flight units are re-dispatched on the next rung
  with their attempt counters untouched -- a dying neighbour is not the
  unit's fault.
* ``on_unit_error`` decides what happens once a unit exhausts its
  retries: ``"raise"`` surfaces :class:`~repro.errors.UnitSolveError` /
  :class:`~repro.errors.UnitTimeoutError`; ``"degrade"`` gives the unit
  one final serial in-parent attempt on the trusted substrate (with
  fault injection disabled -- chaos models infrastructure faults, and
  the parent's own solve is the ground truth the injected faults are
  measured against); ``"skip"`` drops the unit from the result and
  counts it in ``units_failed``.

Fault injection (:mod:`repro.engine.chaos`) threads through every
backend so all of the above is provable under test.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import PoolBrokenError, ReproError, UnitSolveError, UnitTimeoutError
from ..logutil import new_run_id
from ..obs import telemetry as _telemetry
from ..obs.telemetry import Telemetry, UnitRecorder
from ..obs.tracing import maybe_span
from .chaos import FaultPlan, chaos_from_env

log = logging.getLogger(__name__)

__all__ = [
    "NO_RESILIENCE",
    "ResilienceConfig",
    "ResilienceCounters",
    "dispatch_resilient",
]

#: The degradation ladder, most- to least-parallel.  A broken pool
#: falls to the next rung; the serial rung cannot break.
DEGRADATION_LADDER = ("process", "thread", "serial")

_ON_UNIT_ERROR = ("raise", "degrade", "skip")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fault-tolerant dispatch layer.

    Parameters
    ----------
    unit_timeout:
        Per-unit wall-clock budget in seconds, measured from dispatch;
        ``None`` disables timeouts.  Serial execution cannot enforce it.
    retries:
        How many times a failed/timed-out/corrupt unit is re-dispatched
        before the ``on_unit_error`` policy applies (total tries =
        ``retries + 1``).
    backoff / backoff_max / jitter:
        Exponential backoff between a unit's retries:
        ``min(backoff * 2**(k-1), backoff_max)`` seconds before retry
        ``k``, stretched by a seeded uniform jitter of up to
        ``±jitter`` of itself (decorrelates retry storms without
        hurting determinism of the *results*).
    on_unit_error:
        Policy once retries are exhausted: ``"raise"`` (default),
        ``"degrade"`` (one final serial in-parent attempt), or
        ``"skip"`` (drop the unit, count it in ``units_failed``).
    degrade_pool:
        Walk the process → thread → serial ladder when a pool breaks
        (default); ``False`` surfaces
        :class:`~repro.errors.PoolBrokenError` instead.
    chaos:
        Fault injection: a :class:`~repro.engine.chaos.FaultPlan`,
        ``False`` to force injection off, or ``None`` (default) to
        consult the ``REPRO_CHAOS`` env knob.
    """

    unit_timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.02
    backoff_max: float = 0.5
    jitter: float = 0.25
    on_unit_error: str = "raise"
    degrade_pool: bool = True
    chaos: "FaultPlan | bool | None" = None

    def __post_init__(self) -> None:
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError("unit_timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0 or self.backoff_max < 0:
            raise ValueError("backoff/backoff_max must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if self.on_unit_error not in _ON_UNIT_ERROR:
            raise ValueError(
                f"on_unit_error must be one of {_ON_UNIT_ERROR}, "
                f"got {self.on_unit_error!r}"
            )
        if self.chaos is True:
            raise ValueError(
                "chaos=True is ambiguous; pass a FaultPlan or set REPRO_CHAOS"
            )
        if self.chaos not in (None, False) and not isinstance(self.chaos, FaultPlan):
            raise TypeError("chaos must be a FaultPlan, False, or None")

    @classmethod
    def coerce(cls, value: "ResilienceConfig | bool | None") -> "ResilienceConfig":
        """Normalise the ``resilience=`` argument of the public API.

        ``None``/``False`` map to :data:`NO_RESILIENCE`: no retries,
        ``REPRO_CHAOS`` ignored, and a broken pool raises.
        """
        if value is None or value is False:
            return NO_RESILIENCE
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(
            "resilience must be a ResilienceConfig, True, False, or None"
        )

    def resolve_chaos(self) -> Optional[FaultPlan]:
        """The active fault plan: explicit, env (``REPRO_CHAOS``), or none."""
        if self.chaos is False:
            return None
        if self.chaos is None:
            return chaos_from_env()
        return self.chaos


#: What ``resilience=None``/``False`` means: the dispatcher runs every
#: unit once, never injects faults, and surfaces a broken pool as
#: :class:`~repro.errors.PoolBrokenError` instead of degrading.
NO_RESILIENCE = ResilienceConfig(retries=0, chaos=False, degrade_pool=False)


@dataclass
class ResilienceCounters:
    """What the dispatch layer absorbed; folded into
    :class:`~repro.engine.parallel.EngineStats` (hence the v2 metrics
    counters ``engine.retries`` etc.)."""

    retries: int = 0
    timeouts: int = 0
    pool_fallbacks: int = 0
    units_failed: int = 0


class _CorruptResult(ReproError):
    """Internal: a unit report failed the finite-cost audit."""


class _PoolBroken(Exception):
    """Internal: the current rung's executor died; carry the cause."""

    def __init__(self, pool: str, cause: BaseException):
        self.pool = pool
        self.cause = cause
        super().__init__(f"{pool} pool broke: {cause!r}")


_TIMEOUT = "timeout"  # sentinel in the per-unit last-error slot


def _serve_unit_attempt_in_worker(spec, attempt, plan, trace):
    """Process-pool worker side of one resilient attempt.

    Runs the unit under the attempt number and the fault plan, inside a
    ``phase2.solve`` span of the worker's process-local tracer; always
    returns ``(report, spans, stats_or_None)`` so the parent has one
    collection path (``stats`` carries the worker's latency entries and
    resource peaks when telemetry is on).
    """
    from . import parallel

    (seq, model, alpha, build_schedules, attribute, dp_backend,
     telemetry) = parallel._WORKER_ARGS
    label = parallel._unit_label(spec)
    corrupt = (
        plan.before_solve(label, attempt, in_subprocess=True)
        if plan is not None
        else False
    )
    recorder = UnitRecorder() if telemetry else None
    tracer = parallel._WORKER_TRACER if trace else None
    mark = tracer.mark() if tracer is not None else 0
    with maybe_span(
        tracer, "phase2.solve", cat="phase2", unit=label, kind=spec[0],
        attempt=attempt,
    ):
        report = parallel._serve_unit(
            seq, spec, model, alpha, build_schedules, attribute, dp_backend,
            recorder=recorder,
        )
    if corrupt:
        report = FaultPlan.corrupt_report(report)
    return (
        report,
        (tracer.records(since=mark) if tracer is not None else ()),
        recorder.unit_stats() if recorder is not None else None,
    )


def _backoff_delay(config: ResilienceConfig, retry_no: int, rng: random.Random) -> float:
    base = min(config.backoff * (2.0 ** (retry_no - 1)), config.backoff_max)
    if config.jitter and base:
        base *= 1.0 + config.jitter * (2.0 * rng.random() - 1.0)
    return base


def dispatch_resilient(
    *,
    kind: str,
    workers: int,
    seq,
    model,
    alpha: float,
    build_schedules: bool,
    attribute: bool,
    units: Dict[int, tuple],
    tracer,
    config: ResilienceConfig,
    dp_backend: str = "sparse",
    on_result=None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[int, object], ResilienceCounters]:
    """Serve ``units`` (``index -> spec``) fault-tolerantly.

    Returns the reports by index (skipped units absent) plus the
    counters.  ``kind`` is the pool the heuristic picked; broken pools
    degrade down :data:`DEGRADATION_LADDER`, re-dispatching only
    unresolved units.  Specs may include whole ``("batch", ...)``
    buckets of the batched scheduler or ``("shard", ...)`` shards of a
    ``shards=K`` solve: retry, timeout, degradation, the finite-cost
    audit, and chaos corruption then apply per *dispatch*
    (``units_failed`` counts one per skipped dispatch).

    ``on_result(idx, report)``, when given, fires as each unit's audited
    result lands -- including results recovered on a degraded rung --
    and never for skipped units.  A checkpointed sharded solve uses it
    to record completed shards into a crash-safe checkpoint as they
    finish.

    ``telemetry`` plugs the dispatch into the runtime telemetry plane:
    dispatch roundtrips and backoff delays land in its histograms,
    completions/retries/degradations in its :class:`ProgressBoard` (the
    stall watchdog flags silent in-flight units via the same board),
    and process workers ship latency entries + resource peaks back.
    Every retry/timeout/degradation/skip also emits a WARNING-level
    ``repro.engine.resilience`` log record tagged with a per-dispatch
    run id.
    """
    from .parallel import _make_executor, _serve_unit, _unit_label

    plan = config.resolve_chaos()
    counters = ResilienceCounters()
    rng = random.Random(plan.seed if plan is not None else 0)
    attempts: Dict[int, int] = {idx: 0 for idx in units}  # failed tries so far
    results: Dict[int, object] = {}
    skipped: set = set()
    run_id = new_run_id()
    tele = telemetry
    board = tele.board if tele is not None else None
    if board is not None and units:
        board.begin(len(units))

    def label(idx: int) -> str:
        return _unit_label(units[idx])

    def record_result(idx: int, report) -> None:
        results[idx] = report
        if board is not None:
            board.unit_finished(label(idx), ok=True)
        if on_result is not None:
            on_result(idx, report)

    def unresolved():
        return [idx for idx in units if idx not in results and idx not in skipped]

    def check_finite(report, idx: int):
        if not math.isfinite(report.total):
            raise _CorruptResult(
                f"unit {label(idx)} returned non-finite cost {report.total!r}"
            )
        return report

    def serial_attempt(idx: int, attempt: int, with_chaos: bool):
        spec = units[idx]
        if board is not None:
            board.unit_started(label(idx))
        corrupt = (
            plan.before_solve(label(idx), attempt, in_subprocess=False)
            if with_chaos and plan is not None
            else False
        )
        with maybe_span(
            tracer, "phase2.solve", cat="phase2", unit=label(idx),
            kind=spec[0], attempt=attempt,
        ):
            report = _serve_unit(
                seq, spec, model, alpha, build_schedules, attribute,
                dp_backend, recorder=tele,
            )
        if corrupt:
            report = FaultPlan.corrupt_report(report)
        return report

    def finalize_failure(idx: int, error) -> None:
        """Retries exhausted: apply the ``on_unit_error`` policy."""
        n = attempts[idx]
        if config.on_unit_error == "skip":
            skipped.add(idx)
            counters.units_failed += 1
            log.warning(
                "unit failed [run=%s unit=%s attempts=%d]: dropped "
                "(on_unit_error=skip)", run_id, label(idx), n,
            )
            if board is not None:
                board.unit_finished(label(idx), ok=False)
            with maybe_span(
                tracer, "engine.unit_failed", cat="engine", unit=label(idx),
                attempts=n,
            ):
                pass
            return
        if config.on_unit_error == "degrade":
            # last resort: the trusted serial in-parent substrate, with
            # fault injection off (chaos models infrastructure faults).
            try:
                record_result(
                    idx,
                    check_finite(serial_attempt(idx, n + 1, with_chaos=False), idx),
                )
                return
            except Exception as exc:
                raise UnitSolveError(label(idx), n + 1, exc) from exc
        if error == _TIMEOUT:
            raise UnitTimeoutError(label(idx), config.unit_timeout, n)
        cause = error if isinstance(error, BaseException) else None
        raise UnitSolveError(label(idx), n, cause)

    def on_failure(idx: int, error, backlog: list) -> None:
        """One attempt failed: schedule a retry or finalize."""
        attempts[idx] += 1
        if attempts[idx] <= config.retries:
            counters.retries += 1
            reason = (
                _TIMEOUT if error == _TIMEOUT else type(error).__name__
            )
            with maybe_span(
                tracer, "engine.retry", cat="engine", unit=label(idx),
                attempt=attempts[idx], reason=reason,
            ):
                pass
            delay = _backoff_delay(config, attempts[idx], rng)
            log.warning(
                "retrying [run=%s unit=%s attempt=%d reason=%s backoff=%.3gs]",
                run_id, label(idx), attempts[idx], reason, delay,
            )
            if board is not None:
                board.unit_retried(label(idx))
            if tele is not None:
                tele.record(_telemetry.H_BACKOFF, delay)
            heapq.heappush(backlog, (time.monotonic() + delay, idx))
        else:
            finalize_failure(idx, error)

    # -- the serial rung (also the workers<=1 fast path) -----------------
    def run_serial_rung() -> None:
        pending = deque(unresolved())
        backlog: list = []
        while pending or backlog:
            if not pending:
                ready_at, idx = heapq.heappop(backlog)
                wait_s = ready_at - time.monotonic()
                if wait_s > 0:
                    time.sleep(wait_s)
                pending.append(idx)
                continue
            idx = pending.popleft()
            try:
                record_result(
                    idx,
                    check_finite(
                        serial_attempt(idx, attempts[idx] + 1, with_chaos=True),
                        idx,
                    ),
                )
            except Exception as exc:
                on_failure(idx, exc, backlog)

    # -- one pool rung ---------------------------------------------------
    def run_pool_rung(rung: str) -> None:
        trace = tracer is not None
        ex = _make_executor(
            rung, workers, seq, model, alpha, build_schedules, attribute, trace,
            dp_backend, tele is not None,
        )
        try:
            pending = deque(unresolved())
            backlog: list = []
            inflight: Dict[object, Tuple[int, Optional[float], float]] = {}
            # timed-out-but-running futures: they cannot be preempted,
            # so they keep occupying a worker until they finish on
            # their own; counting them against capacity keeps the
            # per-unit deadline measuring *execution*, not queue wait
            abandoned: set = set()
            while pending or backlog or inflight:
                now = time.monotonic()
                while backlog and backlog[0][0] <= now:
                    _, idx = heapq.heappop(backlog)
                    pending.append(idx)
                abandoned = {f for f in abandoned if not f.done()}
                capacity = workers - len(abandoned) - len(inflight)
                while pending and capacity > 0:
                    idx = pending.popleft()
                    attempt = attempts[idx] + 1
                    spec = units[idx]
                    try:
                        if rung == "process":
                            fut = ex.submit(
                                _serve_unit_attempt_in_worker, spec, attempt,
                                plan, trace,
                            )
                        else:
                            fut = ex.submit(
                                serial_attempt, idx, attempt, True
                            )
                    except BrokenExecutor as exc:
                        raise _PoolBroken(rung, exc) from exc
                    submitted = time.monotonic()
                    deadline = (
                        submitted + config.unit_timeout
                        if config.unit_timeout is not None
                        else None
                    )
                    inflight[fut] = (idx, deadline, submitted)
                    # the thread rung's serial_attempt marks the start
                    # itself; the process rung marks it at submit (the
                    # dispatcher keeps at most `workers` in flight, so
                    # submit coincides with execution start)
                    if board is not None and rung == "process":
                        board.unit_started(label(idx))
                    capacity -= 1
                if not inflight and not abandoned:
                    if backlog:
                        wait_s = backlog[0][0] - time.monotonic()
                        if wait_s > 0:
                            time.sleep(wait_s)
                    continue
                timeouts = [
                    dl for _i, dl, _t in inflight.values() if dl is not None
                ]
                if backlog:
                    timeouts.append(backlog[0][0])
                wait_for = (
                    max(0.0, min(timeouts) - time.monotonic())
                    if timeouts
                    else None
                )
                if board is not None and board.stall_after is not None:
                    # keep the dispatch loop itself checking heartbeats
                    # even when nothing else bounds the wait
                    cap = board.stall_after
                    wait_for = cap if wait_for is None else min(wait_for, cap)
                done, _ = wait(
                    list(inflight) + list(abandoned),
                    timeout=wait_for,
                    return_when=FIRST_COMPLETED,
                )
                if board is not None:
                    board.check_stalls()
                for fut in done:
                    if fut in abandoned:
                        abandoned.discard(fut)  # result already written off
                        continue
                    idx, _dl, submitted = inflight.pop(fut)
                    if tele is not None:
                        tele.record(
                            _telemetry.H_DISPATCH,
                            time.monotonic() - submitted,
                        )
                    try:
                        payload = fut.result()
                    except BrokenExecutor as exc:
                        raise _PoolBroken(rung, exc) from exc
                    except Exception as exc:
                        on_failure(idx, exc, backlog)
                        continue
                    if rung == "process":
                        report, spans, wstats = payload
                        if trace and spans:
                            tracer.extend(spans)
                        if tele is not None:
                            tele.absorb_worker(wstats)
                    else:
                        report = payload
                    try:
                        record_result(idx, check_finite(report, idx))
                    except _CorruptResult as exc:
                        on_failure(idx, exc, backlog)
                # deadline sweep: cancel overdue futures still queued;
                # running solves cannot be preempted and move to the
                # abandoned set (blocking a worker until they finish)
                now = time.monotonic()
                overdue = [
                    fut
                    for fut, (_i, dl, _t) in inflight.items()
                    if dl is not None and dl <= now and not fut.done()
                ]
                for fut in overdue:
                    idx, _dl, _t = inflight.pop(fut)
                    if not fut.cancel():
                        abandoned.add(fut)
                    counters.timeouts += 1
                    log.warning(
                        "unit timeout [run=%s unit=%s attempt=%d budget=%.3gs]",
                        run_id, label(idx), attempts[idx] + 1,
                        config.unit_timeout,
                    )
                    on_failure(idx, _TIMEOUT, backlog)
        finally:
            ex.shutdown(wait=False, cancel_futures=True)

    # -- the degradation ladder ------------------------------------------
    if kind in DEGRADATION_LADDER:
        ladder = list(DEGRADATION_LADDER[DEGRADATION_LADDER.index(kind):])
    else:  # pragma: no cover - _resolve_backend only emits ladder kinds
        ladder = ["serial"]
    pos = 0
    while True:
        rung = ladder[pos]
        if rung == "serial" or workers <= 1:
            run_serial_rung()
            break
        try:
            run_pool_rung(rung)
            break
        except _PoolBroken as broken:
            counters.pool_fallbacks += 1
            log.warning(
                "pool degraded [run=%s pool=%s cause=%s]: falling back",
                run_id, rung, type(broken.cause).__name__,
            )
            if board is not None:
                board.degraded(rung)
            with maybe_span(
                tracer, "engine.pool_fallback", cat="engine", pool=rung,
                cause=type(broken.cause).__name__,
            ):
                pass
            pos += 1
            if not config.degrade_pool or pos >= len(ladder):
                raise PoolBrokenError(rung, broken.cause) from broken.cause
    return results, counters
