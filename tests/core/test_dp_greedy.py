"""Tests for the full two-phase DP_Greedy algorithm."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache import optimal_dp
from repro.cache.model import CostModel, RequestSequence
from repro.cache.schedule import validate_schedule
from repro.core.baselines import solve_optimal_nonpacking
from repro.core.dp_greedy import serve_package, serve_singleton, solve_dp_greedy
from repro.experiments.running_example import running_example_sequence
from repro.obs import RunObservation
from repro.trace.workload import zipf_item_workload

from ..conftest import cost_models, multi_item_sequences


@pytest.fixture
def example():
    return running_example_sequence()


class TestRunningExample:
    """The Section V.C walk-through, component by component."""

    def test_packs_the_pair_at_theta_04(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.plan.packages == (frozenset({1, 2}),)

    def test_package_cost_is_certified_optimum(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        report = res.reports[0]
        # certified optimum 9.60 (the paper's example arithmetic says 8.96;
        # see DESIGN.md for the documented discrepancy)
        assert report.package_cost == pytest.approx(9.6)

    def test_single_sided_greedy_costs_match_paper(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        report = res.reports[0]
        by_time = {t: (m, c) for t, m, c in report.modes}
        assert by_time[0.5] == ("transfer", pytest.approx(1.5))
        assert by_time[2.6] == ("package", pytest.approx(1.6))
        assert by_time[1.1] == ("transfer", pytest.approx(1.3))
        assert by_time[3.2] == ("package", pytest.approx(1.6))
        assert report.single_sided_cost == pytest.approx(3.1 + 2.9)

    def test_total_and_ave_cost(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.total_cost == pytest.approx(9.6 + 6.0)
        assert res.denominator == 10  # |d1| + |d2| = 5 + 5
        assert res.ave_cost == pytest.approx(15.6 / 10)

    def test_high_theta_disables_packing(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.9, alpha=0.8)
        assert res.plan.packages == ()
        opt = solve_optimal_nonpacking(example, unit_model)
        assert res.total_cost == pytest.approx(opt.total_cost)
        assert res.ave_cost == pytest.approx(opt.ave_cost)

    def test_package_schedule_is_feasible(self, example, unit_model):
        res = solve_dp_greedy(
            example, unit_model, theta=0.4, alpha=0.8, build_schedules=True
        )
        report = res.reports[0]
        co = example.restrict_to_items({1, 2}, mode="all")
        from repro.cache.model import SingleItemView

        pseudo = SingleItemView(
            servers=co.servers, times=co.times,
            num_servers=co.num_servers, origin=co.origin,
        )
        validate_schedule(report.package_schedule, pseudo)
        assert report.package_schedule.cost(unit_model) == pytest.approx(9.6)

    def test_item_costs_mirror_algorithm1_booking(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        costs = res.item_costs()
        assert costs[1] == 0.0
        assert costs[2] == pytest.approx(res.total_cost)

    def test_report_lookup(self, example, unit_model):
        res = solve_dp_greedy(example, unit_model, theta=0.4, alpha=0.8)
        assert res.report_for(frozenset({1, 2})).group == {1, 2}
        with pytest.raises(KeyError):
            res.report_for(frozenset({9}))


class TestServingUnits:
    def test_serve_singleton_equals_optimal(self, example, unit_model):
        from repro.cache.optimal_dp import optimal_cost

        rep = serve_singleton(example, 1, unit_model)
        assert rep.package_cost == pytest.approx(
            optimal_cost(example.restrict_to_item(1), unit_model)
        )
        assert rep.single_sided_cost == 0.0
        assert rep.num_cooccurrence == 5

    def test_serve_package_rejects_singleton(self, example, unit_model):
        with pytest.raises(ValueError, match="two items"):
            serve_package(example, frozenset({1}), unit_model, alpha=0.8)

    def test_running_example_single_sided_total(self, example, unit_model):
        rep = serve_package(example, frozenset({1, 2}), unit_model, alpha=0.8)
        assert rep.single_sided_cost == pytest.approx(3.1 + 2.9)

    def test_serve_package_counts(self, example, unit_model):
        rep = serve_package(example, frozenset({1, 2}), unit_model, alpha=0.8)
        assert rep.num_cooccurrence == 3
        assert rep.num_single_sided == 4
        assert rep.total == rep.package_cost + rep.single_sided_cost

    def test_three_item_package(self, unit_model):
        seq = RequestSequence(
            [
                (0, 1.0, {1, 2, 3}),
                (1, 2.0, {1, 2, 3}),
                (0, 3.0, {1}),
                (1, 4.0, {2, 3}),
            ],
            num_servers=2,
        )
        rep = serve_package(seq, frozenset({1, 2, 3}), unit_model, alpha=0.5)
        # package rate = alpha * k = 1.5; ship constant = 1.5 * lam
        assert rep.num_cooccurrence == 2
        assert rep.num_single_sided == 2
        # the {2,3} node charges each of its two items separately
        assert len(rep.modes) == 3


class TestParameterValidation:
    def test_alpha_validation(self, example, unit_model):
        with pytest.raises(ValueError, match="alpha"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=1.2)

    def test_unknown_packing_mode(self, example, unit_model):
        with pytest.raises(ValueError, match="packing"):
            solve_dp_greedy(
                example, unit_model, theta=0.3, alpha=0.8, packing="bogus"
            )

    def test_groups_mode_runs(self, unit_model):
        seq = RequestSequence(
            [(0, float(i + 1), {1, 2, 3}) for i in range(6)],
            num_servers=2,
        )
        res = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8, packing="groups"
        )
        assert res.plan.packages == (frozenset({1, 2, 3}),)
        assert res.total_cost > 0


class TestStrictlyPositiveTimes:
    """t=0 is the initial placement instant: a request there is corrupt
    input, rejected up front rather than retried as a worker fault."""

    SEQ = [(0, 0.0, {1, 2}), (1, 1.0, {1}), (0, 2.0, {2}), (1, 3.0, {3})]

    def test_zero_time_rejected(self, unit_model):
        from repro.engine.resilience import ResilienceConfig

        seq = RequestSequence(self.SEQ, num_servers=2)
        for resilience in (None, ResilienceConfig()):
            with pytest.raises(ValueError, match=r"request\[0\].*strictly positive"):
                solve_dp_greedy(
                    seq, unit_model, theta=0.1, alpha=0.8, resilience=resilience
                )

    def test_zero_time_rejected_on_store(self, unit_model, tmp_path):
        from repro.trace.store import TraceStore, write_store

        seq = TraceStore.open(
            write_store(RequestSequence(self.SEQ, num_servers=2), tmp_path / "s")
        )
        with pytest.raises(ValueError, match=r"request\[0\].*strictly positive"):
            solve_dp_greedy(seq, unit_model, theta=0.1, alpha=0.8)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_total_is_sum_of_reports(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert res.total_cost == pytest.approx(sum(r.total for r in res.reports))

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_denominator_is_item_request_count(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        assert res.denominator == seq.total_item_requests()

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_theta_one_equals_nonpacking_optimal(self, seq, model):
        """With theta = 1 nothing can pack (J <= 1), so DP_Greedy reduces
        to the per-item optimal baseline."""
        res = solve_dp_greedy(seq, model, theta=1.0, alpha=0.8)
        opt = solve_optimal_nonpacking(seq, model)
        assert res.total_cost == pytest.approx(opt.total_cost)

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_every_group_covered_once(self, seq, model):
        res = solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)
        covered = sorted(d for r in res.reports for d in r.group)
        assert covered == sorted(seq.items)


class TestExternalPlan:
    def test_supplied_plan_skips_phase1(self, example, unit_model):
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(
            packages=(frozenset({1, 2}),),
            singletons=(),
            similarity={frozenset({1, 2}): 0.99},
        )
        # theta = 1 would normally pack nothing; the plan overrides
        res = solve_dp_greedy(
            example, unit_model, theta=1.0, alpha=0.8, plan=plan
        )
        assert res.plan.packages == (frozenset({1, 2}),)
        assert res.total_cost == pytest.approx(15.6)

    def test_plan_must_cover_items(self, example, unit_model):
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(packages=(), singletons=(1,), similarity={})
        with pytest.raises(ValueError, match="cover"):
            solve_dp_greedy(example, unit_model, theta=0.3, alpha=0.8, plan=plan)

    def test_plan_forcing_singletons_matches_nonpacking(self, example, unit_model):
        from repro.core.baselines import solve_optimal_nonpacking
        from repro.correlation.packing import PackingPlan

        plan = PackingPlan(packages=(), singletons=(1, 2), similarity={})
        res = solve_dp_greedy(example, unit_model, theta=0.0, alpha=0.8, plan=plan)
        opt = solve_optimal_nonpacking(example, unit_model)
        assert res.total_cost == pytest.approx(opt.total_cost)


class TestLargerGroups:
    def test_four_item_package_serves(self, unit_model):
        seq = RequestSequence(
            [
                (0, 1.0, {1, 2, 3, 4}),
                (1, 2.0, {1, 2, 3, 4}),
                (0, 3.0, {1, 2}),
                (1, 4.0, {3}),
                (0, 5.0, {1, 2, 3, 4}),
            ],
            num_servers=2,
        )
        from repro.core.dp_greedy import serve_package

        rep = serve_package(seq, frozenset({1, 2, 3, 4}), unit_model, 0.4)
        assert rep.num_cooccurrence == 3
        assert rep.num_single_sided == 2
        # the {1,2} node charges two items; the {3} node one
        assert len(rep.modes) == 3
        # package rate alpha*k = 1.6; ship constant 1.6*lam
        assert rep.package_cost > 0

    def test_groups_mode_with_max_size_four(self, unit_model):
        seq = RequestSequence(
            [(0, float(i + 1), {1, 2, 3, 4}) for i in range(8)],
            num_servers=2,
        )
        res = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.4,
            packing="groups", max_group_size=4,
        )
        assert res.plan.packages == (frozenset({1, 2, 3, 4}),)


class TestPhase2DecisionHistory:
    """Phase 2 keeps DP decision history only for a consumer that reads
    it: the default solve prices every unit with the cost-only sweep,
    while schedules (``build_schedules=True``) and the cost ledger
    (``obs=``) still take the path-tracking solve.  Pinned as a count of
    path sweeps, not a timing."""

    @pytest.fixture
    def seq(self):
        return zipf_item_workload(300, 6, 12, seed=20, cooccurrence=0.3)

    @pytest.fixture
    def path_sweeps(self, monkeypatch):
        calls = []
        real = optimal_dp._sparse_path_sweep

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimal_dp, "_sparse_path_sweep", counted)
        return calls

    def _cost_only(self, seq, model):
        return solve_dp_greedy(seq, model, theta=0.3, alpha=0.8)

    def test_default_solve_never_enters_path_sweep(self, seq, unit_model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cost-only Phase 2 entered the path sweep")

        monkeypatch.setattr(optimal_dp, "_sparse_path_sweep", refuse)
        res = self._cost_only(seq, unit_model)
        assert res.plan.packages and res.plan.singletons
        for r in res.reports:
            assert r.package_schedule is None and r.attribution is None
        for d in res.plan.singletons:
            serve_singleton(seq, d, unit_model)
        for pkg in res.plan.packages:
            serve_package(seq, pkg, unit_model, 0.8)

    @pytest.mark.parametrize("consumer", ["schedules", "obs"])
    def test_history_consumers_still_take_path_sweep(
        self, seq, unit_model, path_sweeps, consumer
    ):
        ref = self._cost_only(seq, unit_model)
        assert path_sweeps == []
        obs = RunObservation() if consumer == "obs" else None
        res = solve_dp_greedy(
            seq, unit_model, theta=0.3, alpha=0.8,
            build_schedules=consumer == "schedules", obs=obs,
        )
        # one path sweep per serving unit, packages and singletons alike
        assert len(path_sweeps) == len(res.reports)
        assert res.plan == ref.plan
        kinds = set()
        for got, want in zip(res.reports, ref.reports):
            kinds.add(len(got.group) > 1)
            assert got.group == want.group
            assert got.package_cost == want.package_cost
            assert got.total == want.total
            if consumer == "schedules":
                assert got.package_schedule is not None
            else:
                assert got.attribution is not None
        assert kinds == {True, False}
        assert res.total_cost == ref.total_cost
        if obs is not None:
            # finalize raises on any gap; the recorded error stays tiny
            assert obs.reconciliation_error <= 1e-9

    def test_compiled_fallbacks_per_unit_unchanged(self, seq, unit_model, monkeypatch):
        from repro.cache import compiled_dp

        monkeypatch.setenv("REPRO_NO_NUMBA", "1")
        compiled_dp.reset()
        try:
            ref = self._cost_only(seq, unit_model)
            for obs in (None, RunObservation()):
                res = solve_dp_greedy(
                    seq, unit_model, theta=0.3, alpha=0.8,
                    dp_backend="compiled", obs=obs,
                )
                # one engine-level degradation per solve, whatever the route
                assert res.engine_stats.compiled_fallbacks == 1
                assert res.total_cost == ref.total_cost
            # direct serves degrade once per unit, cost-only or not
            for attribute in (False, True):
                before = compiled_dp.fallback_count()
                for r in ref.reports:
                    if len(r.group) > 1:
                        got = serve_package(
                            seq, r.group, unit_model, 0.8,
                            dp_backend="compiled", attribute=attribute,
                        )
                    else:
                        (d,) = r.group
                        got = serve_singleton(
                            seq, d, unit_model,
                            dp_backend="compiled", attribute=attribute,
                        )
                    assert got.total == r.total
                assert compiled_dp.fallback_count() - before == len(ref.reports)
        finally:
            compiled_dp.reset()
