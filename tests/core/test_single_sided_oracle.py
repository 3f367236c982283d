"""Differential oracle for the index-driven Phase-2 projections.

``single_sided_decisions`` and the ``restrict_to_*`` projections read
the sequence's item index instead of scanning every request.  The
scan-based versions they replaced are kept here, test-only, as oracles:
both routes must agree with exact ``==`` -- same decisions in the same
order, same float bit patterns -- on in-memory and store-backed
sequences alike.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import CostModel, Request, RequestSequence, package_rate
from repro.core.dp_greedy import (
    SingleSidedDecision,
    serve_package,
    single_sided_decisions,
)
from repro.trace.store import TraceStore, write_store
from repro.trace.workload import correlated_pair_sequence

from ..conftest import cost_models, multi_item_sequences


def scan_restrict_to_item(seq: RequestSequence, item: int) -> RequestSequence:
    only = frozenset((item,))
    reqs = tuple(Request(r.server, r.time, only) for r in seq if item in r.items)
    return RequestSequence(reqs, seq.num_servers, seq.origin)


def scan_restrict_to_items(seq: RequestSequence, items, mode: str) -> RequestSequence:
    group = frozenset(items)
    keep = []
    for r in seq:
        inter = r.items & group
        if not inter or (mode == "all" and inter != group):
            continue
        keep.append(Request(r.server, r.time, inter))
    return RequestSequence(tuple(keep), seq.num_servers, seq.origin)


def scan_decisions(seq, package, model: CostModel, alpha: float):
    """Observation 2 as a dict walk over the scanned ``any`` projection."""
    mu, lam = model.mu, model.lam
    ship_cost = package_rate(len(package), alpha) * lam
    last_any = {d: (seq.origin, 0.0) for d in package}
    last_same = {(d, seq.origin): 0.0 for d in package}
    out = []
    for r in scan_restrict_to_items(seq, package, "any"):
        if r.items == package:
            for d in package:
                last_any[d] = (r.server, r.time)
                last_same[(d, r.server)] = r.time
            continue
        for d in sorted(r.items):
            t_p = last_same.get((d, r.server))
            cache_cost = mu * (r.time - t_p) if t_p is not None else float("inf")
            prev = last_any[d]
            transfer_cost = mu * (r.time - prev[1]) + lam
            best = min(cache_cost, transfer_cost, ship_cost)
            if best == cache_cost:
                mode = "cache"
            elif best == transfer_cost:
                mode = "transfer"
            else:
                mode = "package"
            out.append(
                SingleSidedDecision(d, r.server, r.time, mode, best, t_p, prev)
            )
            last_any[d] = (r.server, r.time)
            last_same[(d, r.server)] = r.time
    return out


def _same_sequence(got: RequestSequence, ref: RequestSequence) -> bool:
    return (got.requests, got.num_servers, got.origin) == (
        ref.requests,
        ref.num_servers,
        ref.origin,
    )


@settings(max_examples=200, deadline=None)
@given(
    seq=multi_item_sequences(max_items=4),
    model=cost_models(),
    alpha=st.sampled_from([0.3, 0.6, 0.8, 1.0]),
    # item 4 never occurs in the drawn sequences: packages may name it
    package=st.sets(st.integers(0, 4), min_size=2, max_size=3).map(frozenset),
)
def test_index_matches_scan_oracle(seq, model, alpha, package):
    ref = scan_decisions(seq, package, model, alpha)
    with tempfile.TemporaryDirectory() as tmp:
        store = TraceStore.open(write_store(seq, Path(tmp) / "s"))
        for s in (seq, store):
            assert list(single_sided_decisions(s, package, model, alpha)) == ref
            for mode in ("any", "all"):
                assert _same_sequence(
                    s.restrict_to_items(package, mode),
                    scan_restrict_to_items(seq, package, mode),
                )
            for d in sorted(package):
                assert _same_sequence(
                    s.restrict_to_item(d), scan_restrict_to_item(seq, d)
                )


def test_matches_oracle_on_pair_workloads(unit_model):
    pkg = frozenset({1, 2})
    for j in (0.1, 0.4, 0.7):
        seq = correlated_pair_sequence(80, 6, j, seed=5)
        ref = scan_decisions(seq, pkg, unit_model, 0.8)
        assert list(single_sided_decisions(seq, pkg, unit_model, 0.8)) == ref
        rep = serve_package(seq, pkg, unit_model, 0.8)
        assert rep.single_sided_cost == sum((d.cost for d in ref), 0.0)
