"""Tests pinning the Section-V service-pass guards on the solvers that carry
them: a single item is served by :func:`solve_greedy`, a package's
single-sided requests by :func:`serve_package`."""

from __future__ import annotations

import pytest

from repro.cache.greedy import solve_greedy
from repro.cache.model import RequestSequence
from repro.core.dp_greedy import serve_package
from repro.experiments.running_example import running_example_sequence
from repro.trace.workload import correlated_pair_sequence


class TestGreedyServicePass:
    def test_empty(self, unit_model):
        # an item absent from the sequence projects to an empty view,
        # which costs 0.0
        view = running_example_sequence().restrict_to_item(item=999)
        assert view.times == ()
        assert solve_greedy(view, unit_model, build_schedule=False).cost == 0.0

    def test_zero_time_rejected(self, unit_model):
        # the origin cache term mu * t collapses to zero at t = 0, so a
        # projected view carrying such a request must be refused
        seq = RequestSequence([(0, 0.0, {1}), (1, 1.0, {1})], num_servers=2)
        view = seq.restrict_to_item(item=1)
        with pytest.raises(ValueError, match="strictly positive"):
            solve_greedy(view, unit_model)


class TestPackageServicePass:
    def test_rejects_singleton_package(self, unit_model):
        seq = correlated_pair_sequence(10, 3, 0.5, seed=1)
        with pytest.raises(ValueError, match="two items"):
            serve_package(seq, frozenset({1}), unit_model, 0.8)
