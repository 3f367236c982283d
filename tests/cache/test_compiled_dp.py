"""Equivalence and degradation of the compiled (numba-JIT) DP backend.

The compiled kernels must reproduce the sparse backend *bitwise* --
costs and decision paths -- under every entry point: per-unit
``optimal_cost``/``solve_optimal``, the batched lowering, the engine
scheduler (pools, memo sharing, chaos storms), and sharded store-backed
solves.  Where numba is not installed the suite still exercises the
real kernel logic: ``REPRO_COMPILED_FORCE=python`` runs the exact same
kernel functions uncompiled, byte-identical to the JIT output.  The
degradation path (numba missing / ``REPRO_NO_NUMBA=1``) is pinned
separately: bit-identical sparse results, one WARNING, counted
fallbacks.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import compiled_dp
from repro.cache.batched_dp import batched_optimal_costs
from repro.cache.model import CostModel, SingleItemView
from repro.cache.optimal_dp import optimal_cost, solve_optimal
from repro.cache.schedule import validate_schedule
from repro.core.dp_greedy import solve_dp_greedy
from repro.engine.chaos import FaultPlan
from repro.engine.memo import SolverMemo
from repro.engine.resilience import ResilienceConfig
from repro.trace.store import TraceStore, write_store
from repro.trace.workload import random_single_item_view, zipf_item_workload

from ..conftest import cost_models, single_item_views

RATES = st.sampled_from([1.0, 0.5, 1.6, 2.0])


@pytest.fixture(autouse=True)
def _compiled_backend(monkeypatch):
    """Make ``backend="compiled"`` actually run kernels in every test.

    With numba installed the JIT mode is used as-is; without it the
    force-python knob runs the same kernel functions uncompiled.  Either
    way the probe state is reset around the test so env knobs set by
    individual tests (``REPRO_NO_NUMBA``) re-probe cleanly.
    """
    if compiled_dp.mode() == "jit":
        yield
        return
    monkeypatch.setenv("REPRO_COMPILED_FORCE", "python")
    monkeypatch.delenv("REPRO_NO_NUMBA", raising=False)
    compiled_dp.reset()
    yield
    compiled_dp.reset()


def _random_views(seed: int, count: int, max_n: int = 60, m: int = 6):
    """Continuous-uniform instances: exact cost ties have probability zero."""
    rng = np.random.default_rng(seed)
    views = []
    for _ in range(count):
        n = int(rng.integers(0, max_n))
        views.append(
            random_single_item_view(n, m, seed=int(rng.integers(0, 2**31)),
                                    horizon=float(max(n, 1)))
        )
    return views


class TestProbe:
    def test_available_and_mode(self):
        assert compiled_dp.available()
        assert compiled_dp.mode() in ("jit", "python")
        assert compiled_dp.disabled_reason() is None

    def test_warm_up_idempotent(self):
        first = compiled_dp.warm_up()
        assert first >= 0.0
        assert compiled_dp.warm_up() == 0.0  # already warm
        assert compiled_dp.warm_up(force=True) > 0.0
        assert compiled_dp.jit_compile_seconds() >= first

    def test_resolve_backend_prefers_compiled_when_available(self):
        assert compiled_dp.resolve_backend("auto", 1) == "compiled"
        assert compiled_dp.resolve_backend("auto", 10_000) == "compiled"
        # non-auto requests pass through untouched
        for b in ("sparse", "dense", "batched", "compiled"):
            assert compiled_dp.resolve_backend(b, 5) == b

    def test_resolve_backend_order_without_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        compiled_dp.reset()
        assert not compiled_dp.available()
        assert compiled_dp.disabled_reason() is not None
        units = compiled_dp.AUTO_BATCH_UNITS
        assert compiled_dp.resolve_backend("auto", units - 1) == "sparse"
        assert compiled_dp.resolve_backend("auto", units) == "batched"
        assert compiled_dp.resolve_backend("auto", units + 1) == "batched"


class TestKernelBitIdentity:
    @given(
        views=st.lists(single_item_views(), min_size=1, max_size=6),
        model=cost_models(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_sparse_and_dense_bitwise(self, views, model, data):
        rates = data.draw(
            st.lists(RATES, min_size=len(views), max_size=len(views))
        )
        got = batched_optimal_costs(views, model, rates, backend="compiled")
        assert got.dtype == np.float64 and got.shape == (len(views),)
        for b, (v, rate) in enumerate(zip(views, rates)):
            assert got[b] == optimal_cost(v, model, rate_multiplier=rate)
            assert got[b] == optimal_cost(
                v, model, rate_multiplier=rate, backend="dense"
            )

    @given(v=single_item_views(), model=cost_models(), rate=RATES)
    @settings(max_examples=80, deadline=None)
    def test_unit_cost_matches_sparse_bitwise(self, v, model, rate):
        assert optimal_cost(
            v, model, rate_multiplier=rate, backend="compiled"
        ) == optimal_cost(v, model, rate_multiplier=rate)

    @pytest.mark.parametrize("seed", range(8))
    def test_large_mixed_batches_on_continuous_instances(self, seed):
        views = _random_views(seed, count=40)
        model = CostModel(
            mu=float([0.25, 0.5, 1.0, 2.0][seed % 4]),
            lam=float([2.0, 1.0, 0.5, 4.0][seed % 4]),
        )
        got = batched_optimal_costs(views, model, backend="compiled")
        for b, v in enumerate(views):
            assert got[b] == optimal_cost(v, model)
        assert compiled_dp.fallback_count() == 0

    def test_empty_batch_and_empty_views(self, unit_model):
        got = batched_optimal_costs([], unit_model, backend="compiled")
        assert got.shape == (0,)
        empty = SingleItemView(servers=(), times=(), num_servers=3, origin=1)
        one = SingleItemView(servers=(2,), times=(1.5,), num_servers=3, origin=0)
        got = batched_optimal_costs([empty, one, empty], unit_model,
                                    backend="compiled")
        assert got[0] == got[2] == 0.0
        assert got[1] == optimal_cost(one, unit_model)

    def test_nonpositive_time_rejected_like_scalar(self, unit_model):
        v = SingleItemView(servers=(0,), times=(0.0,), num_servers=1, origin=0)
        with pytest.raises(ValueError, match="strictly positive"):
            batched_optimal_costs([v], unit_model, backend="compiled")
        with pytest.raises(ValueError, match="strictly positive"):
            optimal_cost(v, unit_model, backend="compiled")
        with pytest.raises(ValueError, match="strictly positive"):
            solve_optimal(v, unit_model, backend="compiled")

    def test_array_backed_views_accepted(self, unit_model):
        seq = zipf_item_workload(40, 5, 4, seed=7)
        views = [seq.item_view(d) for d in sorted(seq.items)]
        got = batched_optimal_costs(views, unit_model, backend="compiled")
        for b, v in enumerate(views):
            assert got[b] == optimal_cost(v, unit_model)

    def test_int32_store_columns_accepted(self, unit_model, tmp_path):
        seq = zipf_item_workload(60, 6, 5, seed=13)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        for d in sorted(seq.items):
            v = sseq.item_view(d)
            assert optimal_cost(v, unit_model, backend="compiled") == \
                optimal_cost(seq.item_view(d), unit_model)


class TestBackendParity:
    @given(v=single_item_views(), model=cost_models())
    @settings(max_examples=60, deadline=None)
    def test_solve_optimal_compiled_matches_sparse(self, v, model):
        rc = solve_optimal(v, model, backend="compiled")
        rs = solve_optimal(v, model)
        assert rc.cost == rs.cost
        # the compiled path sweep reproduces the sparse tie-breaks, so
        # the decision path -- not just the cost -- is identical
        assert rc.decisions == rs.decisions
        assert rc.backbone_gaps == rs.backbone_gaps
        assert rc.schedule == rs.schedule
        validate_schedule(rc.schedule, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_rate_multiplier_parity(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 80))
        v = random_single_item_view(n, 5, seed=seed, horizon=float(n))
        model = CostModel(mu=1.0, lam=2.0)
        rate = 1.6
        r = solve_optimal(v, model, rate_multiplier=rate, backend="compiled")
        assert r.cost == optimal_cost(v, model, rate_multiplier=rate)
        assert optimal_cost(
            v, model, rate_multiplier=rate, backend="compiled"
        ) == optimal_cost(v, model, rate_multiplier=rate)

    def test_auto_backend_accepted_everywhere(self, unit_model):
        v = SingleItemView(servers=(0, 1), times=(1.0, 2.0), num_servers=2,
                           origin=0)
        ref = optimal_cost(v, unit_model)
        assert optimal_cost(v, unit_model, backend="auto") == ref
        assert solve_optimal(v, unit_model, backend="auto").cost == ref
        got = batched_optimal_costs([v], unit_model, backend="auto")
        assert got[0] == ref

    def test_unknown_backend_still_rejected(self, unit_model):
        v = SingleItemView(servers=(0,), times=(1.0,), num_servers=1, origin=0)
        for backend in ("blocked", "COMPILED", ""):
            with pytest.raises(ValueError, match="backend"):
                solve_optimal(v, unit_model, backend=backend)
            with pytest.raises(ValueError, match="backend"):
                optimal_cost(v, unit_model, backend=backend)


class TestEngineCompiledScheduler:
    def _workload(self, n=300, seed=5):
        return zipf_item_workload(n, 8, 10, seed=seed, cooccurrence=0.4)

    def test_compiled_solve_matches_serial_sparse(self, unit_model):
        seq = self._workload()
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        got = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, dp_backend="compiled"
        )
        assert got.total_cost == ref.total_cost
        assert got.reports == ref.reports
        es = got.engine_stats
        assert es.dp_backend == "compiled"
        assert es.compiled_units == es.units
        assert es.compiled_fallbacks == 0
        assert es.batches >= 1  # compiled cost-only mode batch-schedules

    def test_compiled_under_thread_pool(self, unit_model):
        seq = self._workload(seed=6)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        got = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8,
            dp_backend="compiled", workers=2, pool="thread",
        )
        assert got.total_cost == ref.total_cost
        assert got.engine_stats.pool == "thread"

    def test_memo_shared_across_all_backends(self, unit_model):
        seq = self._workload(seed=8)
        memo = SolverMemo()
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8, memo=memo)
        for backend in ("batched", "compiled"):
            got = solve_dp_greedy(
                seq, unit_model, theta=0.3, alpha=0.8,
                dp_backend=backend, memo=memo,
            )
            assert got.total_cost == ref.total_cost
            assert got.engine_stats.memo_hit_rate == 1.0
            assert got.engine_stats.dispatched == 0

    def test_memo_populated_by_compiled_serves_sparse(self, unit_model):
        seq = self._workload(seed=12)
        memo = SolverMemo()
        first = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8,
            dp_backend="compiled", memo=memo,
        )
        again = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8, memo=memo)
        assert again.total_cost == first.total_cost
        assert again.engine_stats.memo_hit_rate == 1.0

    def test_chaos_storm_still_bit_identical(self, unit_model):
        seq = self._workload(seed=9)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        cfg = ResilienceConfig(
            chaos=FaultPlan(seed=20190806, crash=0.3, corrupt=0.2),
            retries=5,
        )
        got = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8,
            dp_backend="compiled", workers=2, pool="thread", resilience=cfg,
        )
        assert got.total_cost == ref.total_cost
        assert got.reports == ref.reports

    def test_attribution_falls_back_to_per_unit(self, unit_model):
        from repro.obs import RunObservation

        seq = self._workload(seed=10)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        obs = RunObservation()
        got = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8,
            dp_backend="compiled", obs=obs,
        )
        # attribution needs per-unit decisions, so the batch scheduler
        # stands down; units still solve through the compiled path sweep
        assert got.total_cost == ref.total_cost
        assert got.engine_stats.batches == 0
        assert got.engine_stats.dp_backend == "compiled"

    def test_sharded_store_backed_solve(self, unit_model, tmp_path):
        seq = self._workload(seed=14)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        sseq = TraceStore.open(write_store(seq, tmp_path / "s"))
        got = solve_dp_greedy(
            sseq, unit_model, theta=0.3, alpha=0.8, shards=3,
            dp_backend="compiled", workers=2, pool="thread",
        )
        assert got.total_cost == ref.total_cost
        es = got.engine_stats
        assert es.dp_backend == "compiled"
        assert es.shards == 3
        assert es.compiled_units == es.units
        assert es.compiled_fallbacks == 0


class TestFallback:
    """The ``REPRO_NO_NUMBA=1`` / numba-missing degradation path."""

    @pytest.fixture()
    def _no_numba(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        compiled_dp.reset()
        yield
        compiled_dp.reset()

    def test_costs_bit_identical_warning_once_counter_incremented(
        self, unit_model, _no_numba, caplog
    ):
        seq = zipf_item_workload(200, 6, 8, seed=20, cooccurrence=0.4)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        with caplog.at_level(logging.WARNING, logger="repro.cache.compiled_dp"):
            got1 = solve_dp_greedy(
                seq, unit_model, theta=0.3, alpha=0.8, dp_backend="compiled"
            )
            got2 = solve_dp_greedy(
                seq, unit_model, theta=0.3, alpha=0.8, dp_backend="compiled"
            )
        assert got1.total_cost == ref.total_cost
        assert got2.total_cost == ref.total_cost
        assert got1.reports == ref.reports
        # degraded run records the backend that actually ran
        assert got1.engine_stats.dp_backend == "sparse"
        assert got1.engine_stats.compiled_fallbacks == 1
        assert got2.engine_stats.compiled_fallbacks == 1
        assert compiled_dp.fallback_count() == 2
        warnings = [
            r for r in caplog.records
            if r.levelno == logging.WARNING
            and "compiled DP backend unavailable" in r.message
        ]
        assert len(warnings) == 1  # warn-once per process

    def test_per_unit_entry_points_fall_back(self, unit_model, _no_numba):
        v = SingleItemView(servers=(0, 1, 0), times=(1.0, 2.0, 3.5),
                           num_servers=2, origin=1)
        ref = optimal_cost(v, unit_model)
        before = compiled_dp.fallback_count()
        assert optimal_cost(v, unit_model, backend="compiled") == ref
        assert solve_optimal(v, unit_model, backend="compiled").cost == ref
        got = batched_optimal_costs([v], unit_model, backend="compiled")
        assert got[0] == ref
        assert compiled_dp.fallback_count() == before + 3

    def test_auto_degrades_without_engine_fallback_count(
        self, unit_model, _no_numba
    ):
        seq = zipf_item_workload(150, 6, 8, seed=21, cooccurrence=0.4)
        ref = solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8)
        got = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, dp_backend="auto"
        )
        # auto never *selects* compiled when it is unavailable, so no
        # fallback is counted -- the workload is small, so sparse wins
        assert got.total_cost == ref.total_cost
        assert got.engine_stats.dp_backend == "sparse"
        assert got.engine_stats.compiled_fallbacks == 0

    def test_warm_up_noop_when_disabled(self, _no_numba):
        assert not compiled_dp.available()
        assert compiled_dp.warm_up() == 0.0
        assert compiled_dp.jit_compile_seconds() == 0.0
