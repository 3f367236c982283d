"""Tests for the Fig. 13 baselines."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.cache.model import CostModel, RequestSequence
from repro.cache.optimal_dp import optimal_cost
from repro.core.baselines import (
    solve_greedy_nonpacking,
    solve_optimal_nonpacking,
    solve_package_served,
)
from repro.core.dp_greedy import solve_dp_greedy
from repro.experiments.running_example import running_example_sequence

from ..conftest import cost_models, multi_item_sequences


@pytest.fixture
def example():
    return running_example_sequence()


class TestOptimalNonpacking:
    def test_is_sum_of_per_item_optima(self, example, unit_model):
        res = solve_optimal_nonpacking(example, unit_model)
        expected = sum(
            optimal_cost(example.restrict_to_item(d), unit_model)
            for d in example.items
        )
        assert res.total_cost == pytest.approx(expected)
        assert res.name == "Optimal"

    def test_per_group_breakdown(self, example, unit_model):
        res = solve_optimal_nonpacking(example, unit_model)
        assert set(res.per_group) == {frozenset({1}), frozenset({2})}
        assert sum(res.per_group.values()) == pytest.approx(res.total_cost)

    def test_ave_cost_denominator(self, example, unit_model):
        res = solve_optimal_nonpacking(example, unit_model)
        assert res.ave_cost == pytest.approx(res.total_cost / 10)

    def test_empty_sequence(self, unit_model):
        seq = RequestSequence([], num_servers=2)
        res = solve_optimal_nonpacking(seq, unit_model)
        assert res.total_cost == 0.0
        assert res.ave_cost == 0.0

    def test_empty_sequence_dp_greedy_total_is_float(self, unit_model):
        seq = RequestSequence([], num_servers=2)
        for res in (
            solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8),
            solve_dp_greedy(seq, unit_model, theta=0.3, alpha=0.8, shards=2),
        ):
            # 0.0, not the int 0 an unseeded sum() of no reports gives
            assert type(res.total_cost) is float
            assert res.total_cost == 0.0
            assert res.ave_cost == 0.0


class TestGreedyNonpacking:
    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_dominated_by_optimal(self, seq, model):
        g = solve_greedy_nonpacking(seq, model)
        o = solve_optimal_nonpacking(seq, model)
        assert g.total_cost >= o.total_cost - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_within_twice_optimal(self, seq, model):
        g = solve_greedy_nonpacking(seq, model)
        o = solve_optimal_nonpacking(seq, model)
        assert g.total_cost <= 2 * o.total_cost + 1e-9


class TestPackageServed:
    def test_ship_constant_mode_forces_package_option(self, example, unit_model):
        """Package_Served equals DP_Greedy with every single-sided request
        forced onto the 2*alpha*lam package option."""
        alpha = 0.8
        ps = solve_package_served(example, unit_model, theta=0.4, alpha=alpha)
        dpg = solve_dp_greedy(example, unit_model, theta=0.4, alpha=alpha)
        rep = dpg.reports[0]
        forced = rep.package_cost + rep.num_single_sided * 2 * alpha * unit_model.lam
        assert ps.total_cost == pytest.approx(forced)

    def test_never_cheaper_than_dp_greedy_same_plan(self, example, unit_model):
        """DP_Greedy's greedy min includes the package option, so it can
        only improve on Package_Served under the same packing plan."""
        for alpha in (0.2, 0.5, 0.8):
            ps = solve_package_served(example, unit_model, theta=0.4, alpha=alpha)
            dpg = solve_dp_greedy(example, unit_model, theta=0.4, alpha=alpha)
            assert dpg.total_cost <= ps.total_cost + 1e-9

    def test_union_dp_mode_is_stronger(self, example, unit_model):
        """The union-DP ablation optimises globally, so it never loses to
        the ship-constant reading."""
        for alpha in (0.2, 0.5, 0.8):
            ship = solve_package_served(
                example, unit_model, theta=0.4, alpha=alpha, mode="ship-constant"
            )
            union = solve_package_served(
                example, unit_model, theta=0.4, alpha=alpha, mode="union-dp"
            )
            assert union.total_cost <= ship.total_cost + 1e-9

    def test_unknown_mode_rejected(self, example, unit_model):
        with pytest.raises(ValueError, match="mode"):
            solve_package_served(
                example, unit_model, theta=0.4, alpha=0.8, mode="bogus"
            )

    def test_high_theta_reduces_to_optimal(self, example, unit_model):
        ps = solve_package_served(example, unit_model, theta=1.0, alpha=0.8)
        opt = solve_optimal_nonpacking(example, unit_model)
        assert ps.total_cost == pytest.approx(opt.total_cost)

    def test_small_alpha_beats_optimal_on_correlated_load(self, unit_model):
        from repro.trace.workload import correlated_pair_sequence

        seq = correlated_pair_sequence(100, 10, 0.5, seed=1)
        ps = solve_package_served(seq, unit_model, theta=0.0, alpha=0.2)
        opt = solve_optimal_nonpacking(seq, unit_model)
        assert ps.total_cost < opt.total_cost

    @settings(max_examples=40, deadline=None)
    @given(seq=multi_item_sequences(), model=cost_models())
    def test_same_denominator_as_other_algorithms(self, seq, model):
        ps = solve_package_served(seq, model, theta=0.3, alpha=0.8)
        assert ps.denominator == seq.total_item_requests()
