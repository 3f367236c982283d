"""Telemetry against the real engine: observation must never perturb.

The contract of the telemetry plane is strictly observe-only: attaching
a hub to any solve path -- classic serial, engine pools, the resilient
dispatcher, sharded solves -- must leave costs bit-identical to the
telemetry-off run, while the hub ends up holding real latency samples,
progress counts, and (for process pools) worker resource stats.
"""

from __future__ import annotations

import time

import pytest

from repro.cache.model import CostModel
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.resilience import ResilienceConfig
from repro.obs.telemetry import (
    H_DISPATCH,
    H_SOLVE,
    Telemetry,
    active,
    install,
)
from repro.trace.workload import zipf_item_workload

THETA, ALPHA = 0.3, 0.8
_MODEL = CostModel(mu=1.0, lam=1.0)


@pytest.fixture(scope="module")
def seq():
    return zipf_item_workload(160, 8, 10, seed=3, cooccurrence=0.4)


@pytest.fixture(scope="module")
def baseline(seq):
    return solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA)


def _hub():
    return Telemetry(sample_interval=10.0)


class TestBitIdentity:
    def test_classic_serial_with_telemetry(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, telemetry=tele
        )
        assert got.total_cost == baseline.total_cost
        assert got.plan.packages == baseline.plan.packages
        lat = tele.cumulative_latency()
        assert lat[H_SOLVE]["count"] >= 1

    @pytest.mark.parametrize("pool", ["serial", "thread", "process"])
    def test_engine_pools_with_telemetry(self, seq, baseline, pool):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2, pool=pool,
            telemetry=tele,
        )
        assert got.total_cost == baseline.total_cost
        assert tele.cumulative_latency()[H_SOLVE]["count"] >= 1

    def test_resilient_dispatch_with_telemetry(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            pool="process", telemetry=tele,
            resilience=ResilienceConfig(retries=2, chaos=False),
        )
        assert got.total_cost == baseline.total_cost
        lat = tele.cumulative_latency()
        assert lat[H_DISPATCH]["count"] >= 1

    @pytest.mark.parametrize("shards", [1, 3])
    def test_sharded_with_telemetry(self, seq, baseline, shards):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, shards=shards,
            telemetry=tele,
        )
        assert got.total_cost == baseline.total_cost
        assert tele.cumulative_latency()[H_SOLVE]["count"] >= 1

    def test_chaos_retries_with_telemetry_still_converge(self, seq, baseline):
        tele = _hub()
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            telemetry=tele,
            resilience=ResilienceConfig(
                retries=3, chaos=FaultPlan(seed=5, crash=0.5)
            ),
        )
        assert got.total_cost == baseline.total_cost
        assert tele.board.retries >= 1


class TestProgressAndStats:
    def test_board_counts_every_unit(self, seq):
        tele = _hub()
        solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            pool="thread", telemetry=tele,
        )
        snap = tele.board.snapshot()
        assert snap["total"] >= 1
        assert snap["done"] == snap["total"]
        assert snap["in_flight"] == 0
        assert snap["failed"] == 0

    def test_process_pool_ships_worker_stats(self, seq):
        tele = _hub()
        solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            pool="process", telemetry=tele,
        )
        workers = tele.resources_snapshot()["workers"]
        assert workers  # at least one worker reported usage
        for rec in workers.values():
            assert rec["peak_rss_bytes"] > 0

    def test_engine_stats_surface_stalls(self, seq):
        tele = Telemetry(sample_interval=10.0, stall_after=0.01)
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            pool="thread", telemetry=tele,
            resilience=ResilienceConfig(
                retries=1,
                chaos=FaultPlan(seed=1, delay=1.0, delay_seconds=0.08),
            ),
        )
        assert got.engine_stats.stalls >= 1
        assert tele.board.stalls == got.engine_stats.stalls

    def test_stall_free_run_reports_zero(self, seq):
        tele = Telemetry(sample_interval=10.0, stall_after=30.0)
        got = solve_dp_greedy(
            seq, _MODEL, theta=THETA, alpha=ALPHA, workers=2,
            pool="thread", telemetry=tele,
            resilience=ResilienceConfig(retries=1, chaos=False),
        )
        assert got.engine_stats.stalls == 0


class TestActiveHubPickup:
    def test_solver_uses_installed_hub(self, seq, baseline):
        tele = _hub()
        prev = install(tele)
        try:
            got = solve_dp_greedy(seq, _MODEL, theta=THETA, alpha=ALPHA)
        finally:
            install(prev)
        assert got.total_cost == baseline.total_cost
        assert tele.cumulative_latency()[H_SOLVE]["count"] >= 1
        assert active() is not tele

    def test_started_hub_is_left_running(self, seq):
        with _hub() as tele:
            solve_dp_greedy(
                seq, _MODEL, theta=THETA, alpha=ALPHA, telemetry=tele
            )
            assert tele.started  # solver must not stop a borrowed hub
        assert not tele.started
