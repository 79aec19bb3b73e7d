"""Converter switches: the hardware primitive of flat-tree (paper §2.1).

A converter switch is a small software-configurable circuit switch that
sits on a broken edge-server link and a broken aggregation-core link.  It
contributes no hops; a *configuration* simply decides which of its
attached endpoints are circuit-connected (paper Figure 1):

=========  ==================  =========================================
config     4-port              6-port
=========  ==================  =========================================
default    A-C, E-S            A-C, E-S (side ports unused)
local      A-S, C-E            A-S, C-E (side ports unused)
side       —                   S-C, plus peer links E-E' and A-A'
cross      —                   S-C, plus peer links E-A' and A-E'
=========  ==================  =========================================

4-port converters relocate servers to aggregation switches; 6-port
converters have a double side connector to a peer converter in an
adjacent Pod and relocate servers to core switches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.topology.elements import AggSwitch, CoreSwitch, EdgeSwitch, SwitchId

if TYPE_CHECKING:
    from repro.core.failures import FailureSet


class ConverterConfig(enum.Enum):
    """A converter switch configuration (paper Figure 1)."""

    DEFAULT = "default"
    LOCAL = "local"
    SIDE = "side"
    CROSS = "cross"


#: Configurations that require a peer converter's cooperation.
PAIRED_CONFIGS: FrozenSet[ConverterConfig] = frozenset(
    {ConverterConfig.SIDE, ConverterConfig.CROSS}
)

BLADE_A = "A"  # 4-port converters
BLADE_B = "B"  # 6-port converters


@dataclass(frozen=True, order=True)
class ConverterId:
    """Stable identity of a converter switch.

    ``blade`` is ``"A"`` (4-port) or ``"B"`` (6-port); ``row`` indexes the
    converter matrix row (paper Figure 3); ``edge`` is the Pod-local index
    of the edge switch whose column the converter occupies.
    """

    pod: int
    blade: str
    row: int
    edge: int

    def __post_init__(self) -> None:
        if self.blade not in (BLADE_A, BLADE_B):
            raise ConfigurationError(f"unknown blade {self.blade!r}")

    @property
    def is_six_port(self) -> bool:
        return self.blade == BLADE_B


class Leg(enum.Enum):
    """A converter's physical cables (paper Figure 3).

    Each value other than SIDE names the :class:`Converter` attribute
    holding the leg's far end.
    """

    CORE = "core"
    AGG = "agg"
    EDGE = "edge"
    SERVER = "server"
    SIDE = "side"  # the double side bundle to the peer


class Circuit(NamedTuple):
    """One circuit a configuration realizes, named by the legs it joins.

    An own circuit joins legs ``a`` and ``b`` of one converter and uses
    exactly those two legs.  A side-bundle circuit (``side``) joins leg
    ``a`` of a converter to leg ``b`` of its peer and uses the SIDE leg
    of both.  A circuit whose ``a`` is the SERVER leg attaches the
    server; every other circuit is a switch-to-switch cable.
    """

    a: Leg
    b: Leg
    side: bool = False


#: Every circuit of every configuration (paper Figure 1), in the order
#: the network builder adds them.
CIRCUITS: Dict[ConverterConfig, Tuple[Circuit, ...]] = {
    ConverterConfig.DEFAULT: (Circuit(Leg.AGG, Leg.CORE),
                              Circuit(Leg.SERVER, Leg.EDGE)),
    ConverterConfig.LOCAL: (Circuit(Leg.CORE, Leg.EDGE),
                            Circuit(Leg.SERVER, Leg.AGG)),
    ConverterConfig.SIDE: (Circuit(Leg.SERVER, Leg.CORE),
                           Circuit(Leg.EDGE, Leg.EDGE, side=True),
                           Circuit(Leg.AGG, Leg.AGG, side=True)),
    ConverterConfig.CROSS: (Circuit(Leg.SERVER, Leg.CORE),
                            Circuit(Leg.EDGE, Leg.AGG, side=True),
                            Circuit(Leg.AGG, Leg.EDGE, side=True)),
}

_ALL_CONFIGS: FrozenSet[ConverterConfig] = frozenset(ConverterConfig)
_UNPAIRED_CONFIGS: FrozenSet[ConverterConfig] = frozenset(
    {ConverterConfig.DEFAULT, ConverterConfig.LOCAL}
)

# A realized circuit: either a switch-switch cable or a server attachment.
CableLink = Tuple[str, Union[CoreSwitch, AggSwitch, EdgeSwitch],
                  Union[CoreSwitch, AggSwitch, EdgeSwitch]]
AttachLink = Tuple[str, int, Union[CoreSwitch, AggSwitch, EdgeSwitch]]
RealizedLink = Union[CableLink, AttachLink]


@dataclass
class Converter:
    """A converter switch with its physically wired endpoints.

    Attributes
    ----------
    cid:
        Identity (Pod, blade, row, edge column).
    core / agg / edge:
        The switches its C, A, and E ports are cabled to.  The core
        target is fixed by the Pod-core wiring pattern at build time.
    server:
        The server id on its S port.
    peer:
        The 6-port peer across the adjacent Pod (None for 4-port
        converters and for the unpaired middle column when d is odd).
    config:
        Current configuration.
    """

    cid: ConverterId
    core: CoreSwitch
    agg: AggSwitch
    edge: EdgeSwitch
    server: int
    peer: Optional[ConverterId] = None
    config: ConverterConfig = field(default=ConverterConfig.DEFAULT)

    @property
    def valid_configs(self) -> FrozenSet[ConverterConfig]:
        """Configurations this converter may legally take.

        4-port converters support default/local only (§2.1: they "should
        not be used to relocate servers to core switches").  6-port
        converters additionally support side/cross, but only when a peer
        is wired (the odd-d middle column has unused side connectors).
        """
        if self.cid.is_six_port and self.peer is not None:
            return _ALL_CONFIGS
        return _UNPAIRED_CONFIGS

    def check_config(self, config: ConverterConfig) -> None:
        """Raise :class:`ConfigurationError` if ``config`` is illegal."""
        if config not in self.valid_configs:
            raise ConfigurationError(
                f"converter {self.cid} cannot take {config.value!r} "
                f"(valid: {sorted(c.value for c in self.valid_configs)})"
            )

    def own_links(
        self,
        config: Optional[ConverterConfig] = None,
        failures: Optional["FailureSet"] = None,
    ) -> List[RealizedLink]:
        """Circuits realized by this converter alone under ``config``.

        Side links to the peer are *pair* circuits and are produced by
        :func:`pair_links`, not here, so that each pair is materialized
        exactly once.  With ``failures``, only circuits whose legs and
        switches are alive are returned; dead cables are the network
        builder's concern.
        """
        config = config or self.config
        self.check_config(config)
        dead_legs: FrozenSet[Leg] = frozenset()
        dead: FrozenSet[SwitchId] = frozenset()
        if failures is not None:
            dead_legs, dead = failures.dead_legs(self.cid), failures.switches
        out: List[RealizedLink] = []
        for leg_a, leg_b, side in CIRCUITS[config]:
            if side or (dead_legs and (leg_a in dead_legs
                                       or leg_b in dead_legs)):
                continue
            a, b = getattr(self, leg_a.value), getattr(self, leg_b.value)
            if dead and (a in dead or b in dead):
                continue
            out.append(("attach" if leg_a is Leg.SERVER else "cable", a, b))
        return out


def pair_links(
    left: Converter,
    right: Converter,
    configs: Optional[Mapping[ConverterId, ConverterConfig]] = None,
    failures: Optional["FailureSet"] = None,
) -> List[RealizedLink]:
    """Circuits realized by a 6-port converter pair's side bundle.

    ``left``/``right`` are the two peered converters (order does not
    matter), in their configurations in ``configs`` (default: their
    current ones).  Both must be in the same paired configuration:

    * ``side``  — peer-wise links E-E' and A-A';
    * ``cross`` — edge-aggregation links E-A' and A-E'.

    Returns an empty list when neither is in a paired configuration (the
    side bundle is dark) or, under ``failures``, when either SIDE leg is
    dead; circuits touching a dead switch are dropped.  Raises when the
    two ends disagree.
    """
    lc = configs[left.cid] if configs is not None else left.config
    rc = configs[right.cid] if configs is not None else right.config
    in_pair = (lc in PAIRED_CONFIGS, rc in PAIRED_CONFIGS)
    if in_pair == (False, False):
        return []
    if in_pair != (True, True) or lc is not rc:
        raise ConfigurationError(
            f"peered converters {left.cid} ({lc.value}) and "
            f"{right.cid} ({rc.value}) must take the same side/cross "
            f"configuration"
        )
    if left.peer != right.cid or right.peer != left.cid:
        raise ConfigurationError(
            f"{left.cid} and {right.cid} are not wired as peers"
        )
    dead: FrozenSet[SwitchId] = frozenset()
    if failures is not None:
        if (Leg.SIDE in failures.dead_legs(left.cid)
                or Leg.SIDE in failures.dead_legs(right.cid)):
            return []
        dead = failures.switches
    out: List[RealizedLink] = []
    for circuit in CIRCUITS[lc]:
        if not circuit.side:
            continue
        a, b = getattr(left, circuit.a.value), getattr(right, circuit.b.value)
        if a not in dead and b not in dead:
            out.append(("cable", a, b))
    return out
