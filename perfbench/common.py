"""Shared parameters and helpers of the benchmark.

Every workload uses the repository's reference setting: ``CostModel(mu=1,
lam=5)``, theta=0.3, alpha=0.8, ``zipf_item_workload`` over m=100
servers.  The program only ever sees the generated trace (CSV file or
request list); everything else lives here.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MU, LAM = 1.0, 5.0
THETA, ALPHA = 0.3, 0.8
NUM_SERVERS = 100
NUM_REQUESTS = 100_000
WIDE_ITEMS = 1_000
# The trace's shape (popularity, pair structure, hence packing and unit
# sizes) comes from the repository's reference workload seed; --seed then
# relabels items and servers.  Every seed is a different input carrying
# the same work: whether the most popular item packs decides peak RSS by
# ~130 MB, so letting the seed reshape the trace measures the draw, not
# the program.
SHAPE_SEED = 1

# serve-open: open-loop offered rates (requests/s).  After a warm-up
# rung, rounds of a light rung, a rated rung and a closed-loop replay
# repeat until the run's time, less KNEE_SECONDS, is used; they must hold
# with zero failures.  Then KNEE_PASSES passes of the knee search, each
# climbing from LADDER_START_RPS by factors of CLIMB_STEP until a rung
# misses, then bisecting the ratio between the highest rate that held and
# the lowest that missed BISECTIONS times (1.25 ** (1/8): 2.8%
# resolution).  The climb has no top, so a faster engine climbs further.
# max_rps is the median over passes of the highest rate that held.  A
# rate holds when its p99 is within the limit, nothing failed, and when
# the last request was sent at most rate x limit requests were in flight
# (Little's law at the limit: the backlog is not growing).
#
# Basis of the fixed values.  The engine's knee at the parent commit
# 67e0146 measured 20k-24k req/s (medians of two ten-seed sets on a
# 2k-step ladder), so the light rate is about 1/20 of that knee
# (per-request overhead, next to no queueing) and the rated rate about
# 1/5 (an operating point with headroom; mean batch about 10 requests in
# the traced run).  The 50 ms p99 limit is a choice, not a sourced
# target: neither the paper nor the repository states a latency
# objective for the online policy.
LIGHT_RPS, LIGHT_SECONDS = 1_000, 2.0
RATED_RPS, RATED_SECONDS = 4_000, 1.0
LADDER_START_RPS, CLIMB_STEP, BISECTIONS = 12_000, 1.25, 3
STEP_SECONDS = 0.5
KNEE_PASSES, KNEE_SECONDS = 5, 22.0
LATENCY_LIMIT_MS = 50.0
# closed-loop replay behind plan_s on serve-open
REPLAY_REQUESTS = 20_000
REPLAY_WINDOW = 256


def add_src_path() -> None:
    """Import the program from the checkout's own sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_trace(num_items: int, seed: int):
    """The workload trace for ``seed``: the reference-shaped zipf trace
    with items and servers relabelled (server 0, the origin, stays)."""
    import numpy as np

    from repro.cache.model import Request, RequestSequence
    from repro.trace.workload import zipf_item_workload

    base = zipf_item_workload(NUM_REQUESTS, NUM_SERVERS, num_items, seed=SHAPE_SEED)
    rng = np.random.default_rng(seed)
    item = rng.permutation(num_items).tolist()
    server = [0] + (1 + rng.permutation(NUM_SERVERS - 1)).tolist()
    return RequestSequence(
        tuple(Request(server[r.server], r.time, frozenset([item[d] for d in r.items]))
              for r in base),
        NUM_SERVERS,
        base.origin,
    )


def cost_model():
    from repro.cache.model import CostModel

    return CostModel(mu=MU, lam=LAM)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else float("nan")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class GcPauses:
    """Sums garbage-collector pause time through ``gc.callbacks``."""

    def __init__(self) -> None:
        self._start = None
        self.seconds = 0.0

    def _callback(self, phase, _info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def emit(obj) -> None:
    """Print ``obj`` as the last line of standard output."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()
