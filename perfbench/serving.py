"""serve-open: open-loop arrivals into an in-process ServingEngine.

One asyncio generator drives fixed offered rates; a fresh engine
(default ``ServeConfig``, chaos pinned off) serves each rung.  Every
request is timed from the moment it was due, so a stall in the engine or
the generator shows as latency of the requests behind it.  The request
mix is the zipf trace at k=10^3.  The rates and the schedule are in
``common.py``.

``plan_s`` on this workload is the closed-loop replay of a fixed trace
prefix through a fresh engine (trace times passed as hints), checked bit
for bit against ``solve_online_dp_greedy`` on the same prefix.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from pathlib import Path

from common import (
    ALPHA, BISECTIONS, CLIMB_STEP, KNEE_PASSES, KNEE_SECONDS, LADDER_START_RPS,
    LATENCY_LIMIT_MS, LIGHT_RPS, LIGHT_SECONDS, RATED_RPS, RATED_SECONDS,
    REPLAY_REQUESTS, REPLAY_WINDOW, STEP_SECONDS, THETA, WIDE_ITEMS, GcPauses,
    cost_model, make_trace, median, peak_rss_mb, quantile,
)
from spans import SpanRecorder

clock = time.perf_counter


def setup(seed: int, work_dir: Path) -> Path:
    from repro.trace.io import save_sequence

    return save_sequence(work_dir / "requests.csv", make_trace(WIDE_ITEMS, seed))


def _new_engine(model):
    from repro.engine.chaos import FaultPlan
    from repro.serve import ServeConfig, ServingEngine

    t0 = clock()
    engine = ServingEngine(model, theta=THETA, alpha=ALPHA,
                           config=ServeConfig(chaos=FaultPlan()))
    return engine, clock() - t0


class Rung:
    """Outcome of one offered rate."""

    def __init__(self, rate: float, n: int) -> None:
        self.rate = rate
        self.n = n
        self.latency = [math.inf] * n      # due -> answer, seconds
        self.answer_latency = [math.inf] * n  # ServeAnswer.latency
        self.status = [None] * n
        self.times = [None] * n            # logical time the engine assigned
        self.answers = [0] * n
        self.late = [0.0] * n              # generator wake-up - due
        self.backlog = 0
        self.total = math.nan
        self.counters = {}
        self.construct_s = 0.0
        self.engine_s = 0.0
        self.loadgen_s = 0.0
        self.polls = 0      # the generator's idle sleep(0) round trips

    @property
    def failed(self) -> int:
        return sum(1 for s in self.status if s not in ("ok", "degraded"))

    def problems(self):
        out = []
        if any(a != 1 for a in self.answers):
            out.append(f"rung {self.rate}: a request was not answered exactly once")
        c = self.counters
        served = sum(1 for s in self.status if s in ("ok", "degraded"))
        shed = sum(1 for s in self.status if s == "shed")
        rejected = sum(1 for s in self.status if s == "rejected")
        if served + shed + rejected != self.n:
            out.append(f"rung {self.rate}: served+shed+rejected != attempted")
        if c.get("serve.answered") != c.get("serve.admitted"):
            out.append(f"rung {self.rate}: answered != admitted")
        if c.get("serve.rejected") != rejected or c.get("serve.shed") != shed:
            out.append(f"rung {self.rate}: engine counters disagree with answers")
        if not math.isfinite(self.total):
            out.append(f"rung {self.rate}: non-finite total {self.total!r}")
        return out


async def run_rung(model, reqs, rate: float, seconds: float,
                   rec: SpanRecorder = None) -> Rung:
    """Offer ``rate`` requests/s for ``seconds`` to a fresh engine.

    With ``rec`` the rung is traced: spans per request.  Either way the
    rung splits the loop thread's CPU between the generator (its own
    code between awaits) and the engine (everything else: the batch
    loop, its futures, the client tasks running ``submit``, and the loop
    round trip of each of the generator's polls, which ``poll_cost``
    lets the traced run move back to the generator)."""
    n = int(rate * seconds)
    rung = Rung(rate, n)
    gc.collect()  # earlier rungs' garbage is not this rung's cost
    engine, rung.construct_s = _new_engine(model)
    await engine.start()
    loop = asyncio.get_running_loop()
    done = 0
    bookkeeping = 0.0
    thread_time = time.thread_time

    async def client(i: int, due: float) -> None:
        nonlocal done, bookkeeping
        server, items = reqs[i]
        sent = clock()
        try:
            ans = await engine.submit(server, items)
        except Exception as exc:  # counted as a failed request
            rung.status[i] = f"error: {exc!r}"
        else:
            rung.status[i] = ans.status
            rung.answer_latency[i] = ans.latency
            rung.times[i] = ans.time
        end = clock()
        rung.latency[i] = end - due
        rung.answers[i] += 1
        done += 1
        if rec is not None:
            c0 = thread_time()
            root = rec.add("serve.request", due, end, rid=i)
            rec.add("serve.submit", sent, end, root, rid=i)
            bookkeeping += thread_time() - c0

    # in-flight client tasks only: holding every finished task would grow
    # the heap each collection scans, a generator cost billed as stalls
    pending = set()
    cpu_start = resumed = thread_time()
    generator_s = 0.0
    t0 = clock() + 0.002
    i = 0
    while i < n:
        now = clock()
        if t0 + i / rate > now:
            # Busy-poll the schedule instead of sleeping: an idle virtual
            # CPU that halts in a timed sleep wakes up late by however
            # busy the host is, billing host load to the engine.
            generator_s += thread_time() - resumed
            rung.polls += 1
            await asyncio.sleep(0)
            resumed = thread_time()
            continue
        while i < n and t0 + i / rate <= now:
            rung.late[i] = now - (t0 + i / rate)
            task = loop.create_task(client(i, t0 + i / rate))
            pending.add(task)
            task.add_done_callback(pending.discard)
            i += 1
    generator_s += thread_time() - resumed
    rung.backlog = i - done
    await asyncio.gather(*pending)
    rung.total = await engine.drain()
    rung.loadgen_s = generator_s + bookkeeping
    rung.engine_s = thread_time() - cpu_start - rung.loadgen_s
    rung.counters = engine.counters()
    return rung


async def poll_cost(polls: int = 20_000) -> float:
    """Thread CPU of one ``sleep(0)`` round trip through an otherwise idle
    loop: what each of the generator's polls costs the loop itself."""
    t0 = time.thread_time()
    for _ in range(polls):
        await asyncio.sleep(0)
    return (time.thread_time() - t0) / polls


async def replay(model, prefix, reference) -> tuple:
    """Closed-loop replay of ``prefix`` (trace times as hints) through a
    fresh engine; returns ``(seconds, failed, problems)``."""
    engine, _ = _new_engine(model)
    await engine.start()
    window = asyncio.Semaphore(REPLAY_WINDOW)
    statuses = []

    async def one(req) -> None:
        try:
            ans = await engine.submit(req.server, req.items, time=req.time)
            statuses.append(ans.status)
        except Exception as exc:  # counted as a failed request
            statuses.append(f"error: {exc!r}")
        finally:
            window.release()

    t0 = clock()
    tasks = []
    for req in prefix:
        await window.acquire()
        tasks.append(asyncio.create_task(one(req)))
    await asyncio.gather(*tasks)
    total = await engine.drain()
    elapsed = clock() - t0
    failed = sum(1 for s in statuses if s != "ok")
    problems = []
    if len(statuses) != len(prefix):
        problems.append("replay: a request was not answered")
    if total != reference:
        problems.append(f"replay total {total!r} != solve_online_dp_greedy {reference!r}")
    return elapsed, failed, problems


def _replay_steps(model, reqs, rung: Rung, rec: SpanRecorder = None):
    """Replay the rung's admitted requests through ``step`` outside the
    engine; returns ``(step_seconds, observe_seconds, steps, total)``."""
    from repro.cache.model import Request
    from repro.core.online_dpg import OnlineDPGreedyState

    admitted = sorted(
        (rung.times[i], i) for i in range(rung.n) if rung.status[i] in ("ok", "degraded")
    )
    state = OnlineDPGreedyState(model, theta=THETA, alpha=ALPHA)
    observe_s = 0.0
    if rec is not None:
        observe = state.stats.observe

        def timed_observe(request):
            nonlocal observe_s
            t = clock()
            observe(request)
            end = clock()
            observe_s += end - t
            rec.add("correlation.streaming.observe", t, end, len(rec) - 1)

        state.stats.observe = timed_observe
    requests = [Request(reqs[i][0], t, reqs[i][1]) for t, i in admitted]
    step = state.step
    step_s = 0.0
    for (t, i), req in zip(admitted, requests):
        t0 = clock()
        if rec is not None:
            rec.add("core.online_dpg.step", t0, t0, rid=i)
            idx = len(rec) - 1
        step(req)
        end = clock()
        step_s += end - t0
        if rec is not None:
            rec.ends[idx] = end
    return step_s, observe_s, len(requests), state.finalize().total_cost


def measure(seconds: float, path: Path, traced: bool, spans_path: Path) -> dict:
    from repro.cache.model import RequestSequence
    from repro.core.online_dpg import solve_online_dp_greedy
    from repro.trace.io import load_sequence

    model = cost_model()
    seq = load_sequence(path)
    reqs = [(r.server, r.items) for r in seq]
    prefix = RequestSequence(seq.requests[:REPLAY_REQUESTS], seq.num_servers, seq.origin)
    reference = solve_online_dp_greedy(prefix, model, theta=THETA, alpha=ALPHA).total_cost
    del seq
    # Freeze the pre-built requests: otherwise every full collection
    # re-scans the generator's ~10^5 long-lived objects, and those pauses
    # land in the engine's latencies.
    gc.collect()
    gc.freeze()
    if traced:
        return asyncio.run(_traced(model, reqs, spans_path))
    return asyncio.run(_untraced(model, reqs, seconds, prefix, reference))


def _holds(rungs) -> bool:
    """Whether rungs of one rate, pooled, hold the limit."""
    latency = [x for r in rungs for x in r.latency]
    return quantile(latency, 0.99) * 1e3 <= LATENCY_LIMIT_MS and all(
        r.failed == 0 and r.backlog <= r.rate * LATENCY_LIMIT_MS / 1e3 for r in rungs)


async def _knee(model, reqs, base: float, ladder) -> float:
    """One pass of the knee search: climb from ``LADDER_START_RPS`` by
    factors of ``CLIMB_STEP`` until a rung misses, then bisect the ratio
    between the highest rate that held (``base``, the light or rated
    rate, if no climbing rung did) and the lowest that missed
    ``BISECTIONS`` times.  Returns the highest rate that held."""
    lo, hi = base, LADDER_START_RPS
    while True:
        rung = await run_rung(model, reqs, hi, STEP_SECONDS)
        ladder.append(rung)
        if not _holds([rung]):
            break
        lo, hi = hi, round(hi * CLIMB_STEP)
    if not lo:
        return 0
    for _ in range(BISECTIONS):
        mid = round(math.sqrt(lo * hi))
        rung = await run_rung(model, reqs, mid, STEP_SECONDS)
        ladder.append(rung)
        if _holds([rung]):
            lo = mid
        else:
            hi = mid
    return lo


async def _untraced(model, reqs, seconds, prefix, reference) -> dict:
    start = clock()
    light, rated, plan, rounds = [], [], [], []
    attempted = failed = 0
    # the first loaded rung of a process grows the heap and the allocator's
    # arenas; later rungs reuse them, so warm up once before timing
    warm = await run_rung(model, reqs, RATED_RPS, RATED_SECONDS)
    problems = warm.problems()
    while len(plan) < 3 or clock() - start + median(rounds) <= seconds - KNEE_SECONDS:
        t_round = clock()
        light.append(await run_rung(model, reqs, LIGHT_RPS, LIGHT_SECONDS))
        rated.append(await run_rung(model, reqs, RATED_RPS, RATED_SECONDS))
        elapsed, replay_failed, replay_problems = await replay(model, prefix, reference)
        plan.append(elapsed)
        attempted += light[-1].n + rated[-1].n + len(prefix)
        failed += light[-1].failed + rated[-1].failed + replay_failed
        problems.extend(replay_problems)
        rounds.append(clock() - t_round)
    # the knee rungs overload the engine on purpose: their memory is not
    # the operating point's
    rss = peak_rss_mb()

    base = max([0] + [rs[0].rate for rs in (light, rated) if _holds(rs)])
    ladder, t_knee = [], clock()
    knees = [await _knee(model, reqs, base, ladder) for _ in range(KNEE_PASSES)]
    for rung in ladder + light + rated:
        problems.extend(rung.problems())
    failed += len(problems)  # a failed output check is a failed operation
    # per-round percentiles, then the median over rounds: the p99 sits
    # where a rare slow path starts, so one round's share of it moves a
    # pooled p99 by milliseconds
    def ms(rungs, q):
        return median([quantile(r.latency, q) * 1e3 for r in rungs])

    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "plan_s": median(plan),
            "peak_rss_mb": rss,
            "p50_ms": ms(rated, 0.5),
            "p99_ms": ms(rated, 0.99),
            "p99_ms_light": ms(light, 0.99),
            "max_rps": float(median(knees)),
            "engine_construct_s": median([r.construct_s for r in ladder + light + rated]),
            "passes": len(plan),
            "knees": knees,
            "knee_search": f"{len(ladder)} rungs in {clock() - t_knee:.1f} s",
        },
    }


async def _traced(model, reqs, spans_path) -> dict:
    problems = []
    rec = SpanRecorder()
    light = await run_rung(model, reqs, LIGHT_RPS, LIGHT_SECONDS, rec)
    plain = await run_rung(model, reqs, RATED_RPS, RATED_SECONDS)
    with GcPauses() as pauses:
        rated = await run_rung(model, reqs, RATED_RPS, RATED_SECONDS, rec)
    for rung in (light, plain, rated):
        problems.extend(rung.problems())
    step_s, _, steps, step_total = _replay_steps(model, reqs, rated)
    _, observe_s, _, _ = _replay_steps(model, reqs, rated, rec)
    if rated.failed == 0 and step_total != rated.total:
        problems.append(f"step replay total {step_total!r} != engine total {rated.total!r}")
    rec.write(spans_path)

    c = rated.counters
    # each idle poll also costs the loop a round trip, which the rung's
    # split bills to the engine; move it to the generator
    polling = rated.polls * await poll_cost()
    busy = rated.engine_s - polling
    return {
        "attempted": light.n + plain.n + rated.n,
        "failed": light.failed + plain.failed + rated.failed + len(problems),
        "problems": problems,
        "metrics": {
            "correlation.streaming.observe_s": observe_s,
            "core.online_dpg.step_us": step_s / steps * 1e6,
            "serve.busy_s": busy,
            "serve.step_share": step_s / busy,
            "serve.batches": c["serve.batches"],
            "serve.batch_size_mean": c["serve.admitted"] / c["serve.batches"],
            "serve.rejected": c["serve.rejected"],
            "serve.shed": c["serve.shed"],
            "serve.answer_p99_ms": quantile(rated.answer_latency, 0.99) * 1e3,
            "loadgen.busy_s": rated.loadgen_s + polling,
            "loadgen.late_p99_ms": quantile(rated.late, 0.99) * 1e3,
            "loadgen.late_max_ms": max(rated.late) * 1e3,
            "runtime.gc_pause_s": pauses.seconds,
            # what tracing adds to the typical request's latency
            "tracing.overhead_s": quantile(rated.latency, 0.5) - quantile(plain.latency, 0.5),
        },
    }
