"""Topology conversion engine: operating modes over a flat-tree plant.

The paper's three homogeneous modes (Figure 2) plus hybrid mode (§3.4):

* **Clos** — every converter ``default``; the network is exactly the
  original fat-tree.
* **Global random** — 4-port converters ``local`` (servers to
  aggregation switches, core-edge direct links), 6-port converters
  ``side``/``cross`` by row parity (servers to core switches, cross-Pod
  peer links).
* **Local random** — 4-port converters ``local``, 6-port converters
  ``default``: half-ish of each Pod's servers move to aggregation
  switches while the Pod keeps its Clos core connectivity.
* **Hybrid** — a per-Pod mode assignment.  A 6-port converter whose peer
  Pod is not also in global-random mode cannot use its side bundle and
  falls back to ``local``.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional

from repro import obs
from repro.errors import ConfigurationError
from repro.core.converter import BLADE_A, ConverterConfig, ConverterId
from repro.core.flattree import FlatTree
from repro.core.interpod import paired_config_for_row
from repro.topology.elements import Network


class Mode(enum.Enum):
    """Operating mode of a Pod (or of the whole network)."""

    CLOS = "clos"
    GLOBAL_RANDOM = "global-random"
    LOCAL_RANDOM = "local-random"


def mode_configs(
    ft: FlatTree, mode: Mode
) -> Dict[ConverterId, ConverterConfig]:
    """Configuration assignment putting the whole network in ``mode``."""
    return hybrid_configs(ft, {p: mode for p in range(ft.params.pods)})


def hybrid_configs(
    ft: FlatTree, pod_modes: Mapping[int, Mode]
) -> Dict[ConverterId, ConverterConfig]:
    """Configuration assignment for a per-Pod mode map.

    Every Pod must be assigned a mode.  Converter rules:

    ========== ============= =========================================
    Pod mode   blade A        blade B
    ========== ============= =========================================
    CLOS       default        default
    LOCAL      local          default
    GLOBAL     local          side/cross by row parity when the peer's
                              Pod is also GLOBAL; ``local`` otherwise
    ========== ============= =========================================
    """
    _check_pod_modes(ft, pod_modes)
    assignment: Dict[ConverterId, ConverterConfig] = {}
    for cid, conv in ft.converters.items():
        mode = pod_modes[cid.pod]
        if mode is Mode.CLOS:
            assignment[cid] = ConverterConfig.DEFAULT
        elif cid.blade == BLADE_A:
            assignment[cid] = ConverterConfig.LOCAL
        elif mode is Mode.LOCAL_RANDOM:
            assignment[cid] = ConverterConfig.DEFAULT
        else:  # GLOBAL_RANDOM, blade B
            peer = conv.peer
            if peer is not None and pod_modes[peer.pod] is Mode.GLOBAL_RANDOM:
                assignment[cid] = paired_config_for_row(cid.row)
            else:
                assignment[cid] = ConverterConfig.LOCAL
    return assignment


def _check_pod_modes(ft: FlatTree, pod_modes: Mapping[int, Mode]) -> None:
    pods = set(range(ft.params.pods))
    given = set(pod_modes)
    if given != pods:
        missing = sorted(pods - given)
        extra = sorted(given - pods)
        raise ConfigurationError(
            f"pod mode map must cover exactly Pods 0..{ft.params.pods - 1}"
            f" (missing {missing}, unknown {extra})"
        )


def convert(
    ft: FlatTree,
    mode: Optional[Mode] = None,
    pod_modes: Optional[Mapping[int, Mode]] = None,
    name: Optional[str] = None,
) -> Network:
    """Reconfigure ``ft`` into a mode and return the materialized network.

    Exactly one of ``mode`` (homogeneous) or ``pod_modes`` (hybrid) must
    be given.  The flat-tree's converter state is updated in place, so
    subsequent :meth:`FlatTree.materialize` calls see the same topology.
    """
    if (mode is None) == (pod_modes is None):
        raise ConfigurationError("pass exactly one of mode / pod_modes")
    if mode is not None:
        assignment = mode_configs(ft, mode)
        default_name = f"flat-tree[{mode.value}]"
    else:
        assignment = hybrid_configs(ft, pod_modes)
        default_name = "flat-tree[hybrid]"
    with obs.span("convert", mode=mode.value if mode else "hybrid"):
        changes = ft.set_configs(assignment)
        obs.incr("core.conversion.converts")
        obs.incr("core.conversion.reprogrammed", len(changes))
        with obs.timer("core.conversion.materialize_s"):
            return ft.materialize(name=name or default_name)
