"""Unit tests for converter switches and their configurations."""

from __future__ import annotations

import pytest

from repro.core.converter import (
    BLADE_A,
    BLADE_B,
    Converter,
    ConverterConfig,
    ConverterId,
    pair_links,
)
from repro.errors import ConfigurationError
from repro.topology.elements import AggSwitch, CoreSwitch, EdgeSwitch


def make_converter(blade=BLADE_A, peer=None, pod=0, row=0, edge=0, server=1,
                   config=ConverterConfig.DEFAULT):
    return Converter(
        cid=ConverterId(pod, blade, row, edge),
        core=CoreSwitch(10 + pod),
        agg=AggSwitch(pod, 0),
        edge=EdgeSwitch(pod, edge),
        server=server,
        peer=peer,
        config=config,
    )


class TestConverterId:
    def test_blade_validation(self):
        with pytest.raises(ConfigurationError):
            ConverterId(0, "C", 0, 0)

    def test_is_six_port(self):
        assert ConverterId(0, BLADE_B, 0, 0).is_six_port
        assert not ConverterId(0, BLADE_A, 0, 0).is_six_port

    def test_ordering_stable(self):
        a = ConverterId(0, BLADE_A, 0, 0)
        b = ConverterId(0, BLADE_A, 0, 1)
        assert a < b


class TestValidConfigs:
    def test_four_port_configs(self):
        conv = make_converter(BLADE_A)
        assert conv.valid_configs == {
            ConverterConfig.DEFAULT,
            ConverterConfig.LOCAL,
        }

    def test_six_port_with_peer_all_configs(self):
        conv = make_converter(BLADE_B, peer=ConverterId(1, BLADE_B, 0, 3))
        assert conv.valid_configs == set(ConverterConfig)

    def test_six_port_without_peer_limited(self):
        """The odd-d middle column: side connectors unused (paper §2.2)."""
        conv = make_converter(BLADE_B, peer=None)
        assert ConverterConfig.SIDE not in conv.valid_configs
        assert ConverterConfig.CROSS not in conv.valid_configs

    def test_four_port_side_rejected(self):
        conv = make_converter(BLADE_A)
        with pytest.raises(ConfigurationError):
            conv.check_config(ConverterConfig.SIDE)


class TestOwnLinks:
    def test_default_restores_clos(self):
        conv = make_converter(BLADE_A)
        links = conv.own_links(ConverterConfig.DEFAULT)
        assert ("cable", conv.agg, conv.core) in links
        assert ("attach", conv.server, conv.edge) in links

    def test_local_relocates_server_to_agg(self):
        conv = make_converter(BLADE_A)
        links = conv.own_links(ConverterConfig.LOCAL)
        assert ("cable", conv.core, conv.edge) in links
        assert ("attach", conv.server, conv.agg) in links

    def test_side_relocates_server_to_core(self):
        conv = make_converter(BLADE_B, peer=ConverterId(1, BLADE_B, 0, 3),
                              config=ConverterConfig.SIDE)
        links = conv.own_links()
        assert links == [("attach", conv.server, conv.core)]

    def test_illegal_config_raises(self):
        conv = make_converter(BLADE_A)
        with pytest.raises(ConfigurationError):
            conv.own_links(ConverterConfig.CROSS)


class TestPairLinks:
    def make_pair(self, left_config, right_config):
        left_id = ConverterId(1, BLADE_B, 0, 0)
        right_id = ConverterId(0, BLADE_B, 0, 3)
        left = make_converter(BLADE_B, peer=right_id, pod=1, edge=0,
                              server=5, config=left_config)
        right = make_converter(BLADE_B, peer=left_id, pod=0, edge=3,
                               server=9, config=right_config)
        return left, right

    def test_side_gives_peer_wise_links(self):
        left, right = self.make_pair(ConverterConfig.SIDE, ConverterConfig.SIDE)
        links = pair_links(left, right)
        assert ("cable", left.edge, right.edge) in links
        assert ("cable", left.agg, right.agg) in links

    def test_cross_gives_edge_agg_links(self):
        left, right = self.make_pair(
            ConverterConfig.CROSS, ConverterConfig.CROSS
        )
        links = pair_links(left, right)
        assert ("cable", left.edge, right.agg) in links
        assert ("cable", left.agg, right.edge) in links

    def test_dark_bundle_when_unpaired_configs(self):
        left, right = self.make_pair(
            ConverterConfig.DEFAULT, ConverterConfig.LOCAL
        )
        assert pair_links(left, right) == []

    def test_mismatched_paired_configs_raise(self):
        left, right = self.make_pair(ConverterConfig.SIDE, ConverterConfig.CROSS)
        with pytest.raises(ConfigurationError):
            pair_links(left, right)

    def test_half_dark_bundle_raises(self):
        left, right = self.make_pair(
            ConverterConfig.SIDE, ConverterConfig.DEFAULT
        )
        with pytest.raises(ConfigurationError):
            pair_links(left, right)

    def test_non_peers_raise(self):
        left, right = self.make_pair(ConverterConfig.SIDE, ConverterConfig.SIDE)
        right.peer = ConverterId(5, BLADE_B, 0, 0)
        with pytest.raises(ConfigurationError):
            pair_links(left, right)
