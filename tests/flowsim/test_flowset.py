"""The kept flow set of ``repro.flowsim.fairshare``.

A set changed by admissions and trims must hold exactly the entries and
per-link counts of a set built afresh from its flows, in the same
order, and allocate exactly (``==``) the rates of a plain-list call.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, RoutingError
from repro.flowsim.fairshare import FlowSet, RoutedFlow, max_min_fair_rates
from repro.routing.base import Path
from repro.topology.elements import Network, PlainSwitch
from test_fairshare_oracle import (
    TOPOLOGIES,
    candidate_paths,
    line,
    network,
    p,
    with_parallel_cables,
)


def assert_same_set(kept: FlowSet, fresh: FlowSet) -> None:
    assert kept.flows == fresh.flows
    assert kept.ids == fresh.ids
    assert np.array_equal(kept.owner, fresh.owner)
    assert np.array_equal(kept.crossing, fresh.crossing)
    assert np.array_equal(kept.count, fresh.count)
    assert kept.capped == fresh.capped


@given(
    kind=st.sampled_from(TOPOLOGIES),
    k=st.sampled_from((4, 6)),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=1, max_value=30),
    zero_hop=st.sampled_from((0.0, 0.2)),
    capped=st.sampled_from((0.0, 0.3)),
    parallel=st.booleans(),
)
def test_admit_and_trim_keep_the_fresh_set(kind, k, seed, steps, zero_hop,
                                           capped, parallel):
    rng = random.Random(seed)
    net = network(kind, k)
    if parallel:
        net = with_parallel_cables(net, rng, 6)
    switches = sorted(network(kind, k).switches(), key=repr)

    def new_flow(fid: int) -> RoutedFlow:
        if rng.random() < zero_hop:
            path = Path((rng.choice(switches),))
        else:
            src, dst = rng.sample(switches, 2)
            path = rng.choice(candidate_paths(kind, k, src, dst))
        demand = rng.uniform(0.01, 1.2) if rng.random() < capped else None
        return RoutedFlow(fid, path, demand=demand)

    index = net.link_index()
    kept = FlowSet(index)
    next_id = 0
    for _ in range(steps):
        if kept and rng.random() < 0.4:
            kept.trim(np.array([rng.random() < 0.6 for _ in kept]))
        else:
            batch = rng.randint(1, 4)
            kept.admit(new_flow(fid) for fid in range(next_id,
                                                      next_id + batch))
            next_id += batch
        assert_same_set(kept, FlowSet(index, kept.flows))
        assert (max_min_fair_rates(net, kept).rates
                == max_min_fair_rates(net, list(kept.flows)).rates)


class TestChecks:
    def test_rejected_admission_changes_nothing(self):
        net = line()
        kept = FlowSet(net.link_index(), [RoutedFlow(1, p(0, 1, 2))])
        with pytest.raises(RoutingError, match="non-existent link"):
            kept.admit([RoutedFlow(2, p(1, 2)), RoutedFlow(3, p(2, 0))])
        with pytest.raises(ReproError, match="flow ids must be unique"):
            kept.admit([RoutedFlow(2, p(1, 2)), RoutedFlow(1, p(0, 1))])
        assert_same_set(kept, FlowSet(net.link_index(),
                                      [RoutedFlow(1, p(0, 1, 2))]))

    def test_a_set_over_another_fabric_is_refused(self):
        net = line()
        kept = FlowSet(net.link_index(), [RoutedFlow(1, p(0, 1))])
        net.add_cable(PlainSwitch(0), PlainSwitch(1))
        with pytest.raises(ReproError, match="another fabric"):
            max_min_fair_rates(net, kept)
        assert max_min_fair_rates(Network("other"), []).rates == {}

    def test_trim_to_nothing(self):
        net = line()
        kept = FlowSet(net.link_index(), [RoutedFlow(1, p(0, 1)),
                                          RoutedFlow(2, p(1))])
        kept.trim(np.array([False, False]))
        assert len(kept) == 0 and not kept.count.any()
        assert max_min_fair_rates(net, kept).rates == {}
