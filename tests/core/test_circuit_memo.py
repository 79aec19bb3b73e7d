"""The plant's kept circuits against circuits built anew.

``FlatTree.circuits`` keeps each converter's and side pair's circuits
per configuration when there are no failures, and ``materialize`` builds
from them.  ``materialize_oracle.materialize_fresh`` is the same builder
over circuits built anew on every call, so every property here holds the
kept circuits to it element for element: per-switch adjacency order,
edge attributes, port ledger, server order and the integer index that
KSP, fair share and the flow LPs read.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import materialize_oracle as oracle
from repro.core.controller import Controller
from repro.core.conversion import Mode, hybrid_configs
from repro.core.converter import ConverterConfig, pair_links
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet
from repro.core.flattree import FlatTree
from repro.core.zones import Zone, ZoneLayout, proportional_layout
from repro.errors import ConfigurationError
from repro.topology.elements import Network
from test_materialize_oracle import KS, failure_sets


def signature(net: Network):
    """Everything a build decides, in its order, with value types."""
    index = net.link_index()
    return (
        net.name,
        [(s, net.ports(s), net.ports_used(s), net.servers_on(s))
         for s in net.switches()],
        [(u, [(v, [(key, repr(value)) for key, value in data.items()])
              for v, data in nbrs.items()])
         for u, nbrs in net.fabric.adjacency()],
        [(server, net.server_switch(server)) for server in net.servers()],
        list(index.switch_ids.items()),
        index.neighbors,
        [(array.dtype.str, array.tobytes()) for array in index.links],
    )


@st.composite
def layouts(draw, ft: FlatTree) -> ZoneLayout:
    """A uniform, proportional or per-Pod hybrid layout."""
    params = ft.params
    kind = draw(st.sampled_from(["uniform", "proportional", "hybrid"]))
    if kind == "proportional":
        count = draw(st.integers(1, params.pods - 1))
        return proportional_layout(params, count / params.pods)
    if kind == "uniform":
        modes = [draw(st.sampled_from(list(Mode)))] * params.pods
    else:
        modes = draw(st.lists(st.sampled_from(list(Mode)),
                              min_size=params.pods, max_size=params.pods))
    zones = tuple(
        Zone(mode.value, mode,
             tuple(p for p in range(params.pods) if modes[p] is mode))
        for mode in Mode if mode in modes)
    return ZoneLayout(params=params, zones=zones)


@st.composite
def plants(draw):
    k = draw(st.sampled_from(KS))
    design = FlatTreeDesign.for_fat_tree(k)
    return k, design, FlatTree(design)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_circuits_build_the_fresh_network(data):
    k, _design, ft = data.draw(plants())
    layout = data.draw(layouts(ft))
    failures = data.draw(failure_sets(ft, k))
    assignment = hybrid_configs(ft, layout.pod_modes())
    expected = signature(
        oracle.materialize_fresh(ft, assignment, failures))
    # Twice: the first build fills the circuit memo, the second reads it.
    for _ in range(2):
        assert signature(ft.materialize(assignment, failures)) == expected
    ft.set_configs(assignment)
    assert signature(ft.materialize(failures=failures)) == signature(
        oracle.materialize_fresh(ft, failures=failures))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_conversions_serve_a_fresh_plants_network(data):
    """Whatever came before, the controller serves the network a fresh
    plant builds for the same layout."""
    _k, design, ft = data.draw(plants())
    controller = Controller(ft)
    fresh = FlatTree(design)
    for layout in data.draw(st.lists(layouts(ft), min_size=1, max_size=5)):
        controller.apply_layout(layout)
        expected = fresh.materialize(hybrid_configs(fresh,
                                                    layout.pod_modes()))
        assert signature(controller.network) == signature(expected)
        assert controller.flattree.configs() == hybrid_configs(
            fresh, layout.pod_modes())


class TestCircuitMemo:
    def test_memoized_circuits_equal_fresh_ones(self):
        """Under every configuration a converter accepts, and every pair
        of configurations a side bundle's ends may take, the kept
        circuits equal ``own_links``/``pair_links`` built anew; a pair
        whose ends disagree raises every time."""
        for k in KS:
            ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
            for cid, conv in ft.converters.items():
                for config in sorted(conv.valid_configs, key=repr):
                    fresh = conv.own_links(config)
                    for _ in range(2):
                        assert ft.circuits({cid: config}, [cid]) == fresh
            for pair in ft.pairs:
                left, right = (ft.converters[cid] for cid in pair)
                for lc in ConverterConfig:
                    for rc in ConverterConfig:
                        configs = dict(zip(pair, (lc, rc)))
                        try:
                            fresh = pair_links(left, right, configs)
                        except ConfigurationError as error:
                            for _ in range(2):
                                with pytest.raises(
                                        ConfigurationError,
                                        match=re.escape(str(error))):
                                    ft.circuits(configs, [], [pair])
                            continue
                        for _ in range(2):
                            assert ft.circuits(configs, [], [pair]) == fresh

    def test_failures_never_read_the_memo(self, monkeypatch):
        class Untouchable(dict):
            def get(self, key, default=None):
                raise AssertionError("memo read under failures")

            __getitem__ = get

        ft = FlatTree(FlatTreeDesign.for_fat_tree(6))
        configs = hybrid_configs(ft, {p: Mode.GLOBAL_RANDOM
                                      for p in range(ft.params.pods)})
        monkeypatch.setattr(ft, "_own_circuits", Untouchable())
        monkeypatch.setattr(ft, "_pair_circuits", Untouchable())
        cid = sorted(ft.converters)[0]
        dead = FailureSet(switches=frozenset({ft.converters[cid].core}))
        for failures in (FailureSet(), dead):
            assert ft.circuits(configs, ft.converters, ft.pairs, failures) \
                == oracle.fresh_circuits(ft, configs, ft.converters,
                                         ft.pairs, failures)
            assert signature(ft.materialize(configs, failures)) == signature(
                oracle.materialize_fresh(ft, configs, failures))


def test_a_dead_switch_takes_its_cables_and_servers_along():
    """At k=8 each edge switch hosts a server on a direct port; a dead
    edge switch and a dead core leave what they leave over circuits
    built anew."""
    ft = FlatTree(FlatTreeDesign.for_fat_tree(8))
    edge = ft._direct_attaches[0][1]
    core = sorted(s for s in ft.switches if s.kind == "core")[0]
    failures = FailureSet(switches=frozenset({edge, core}))
    for mode in Mode:
        configs = hybrid_configs(ft, {p: mode for p in range(ft.params.pods)})
        net = ft.materialize(configs, failures)
        assert edge not in set(net.switches())
        assert signature(net) == signature(
            oracle.materialize_fresh(ft, configs, failures))
