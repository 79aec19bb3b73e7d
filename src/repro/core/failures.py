"""Failure injection and topology self-recovery (paper §5, future work).

"Convertibility can play a broader role in network management, e.g.
self-recovery of the topology from failures."  This module makes that
concrete for the flat-tree plant:

* a :class:`FailureSet` marks physical *legs* dead — the cables between
  a converter and its core/aggregation/edge switch or server, the side
  bundle to its peer, plus any direct (non-converter) cable;
* a circuit realized by a converter survives only if its legs are
  healthy (:data:`repro.core.converter.CIRCUITS` names the legs of
  every circuit); ``FlatTree.materialize(failures=...)`` produces the
  degraded logical network for any configuration;
* :func:`heal` searches each affected converter's configuration space
  for the assignment that (1) keeps its server attached through healthy
  legs and (2) maximizes the surviving switch-level circuits — the
  self-recovery move a controller would execute.

The healing is per-converter greedy (converters fail independently and
their configuration spaces are tiny), with the side-bundle pairing
handled jointly per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.core.converter import (
    Converter,
    ConverterConfig,
    ConverterId,
    Leg,
    PAIRED_CONFIGS,
    pair_links,
)
from repro.topology.elements import SwitchId

if TYPE_CHECKING:
    from repro.core.flattree import FlatTree


@dataclass(frozen=True)
class FailureSet:
    """Dead physical infrastructure.

    ``converter_legs`` maps a converter to its dead legs.  ``cables``
    holds dead cables (switch pairs) and ``switches`` whole dead
    switches (all their cables die).
    """

    converter_legs: Dict[ConverterId, FrozenSet[Leg]] = field(
        default_factory=dict
    )
    cables: FrozenSet[frozenset] = frozenset()
    switches: FrozenSet[SwitchId] = frozenset()

    @classmethod
    def of_legs(cls, *failures: Tuple[ConverterId, Leg]) -> "FailureSet":
        legs: Dict[ConverterId, Set[Leg]] = {}
        for cid, leg in failures:
            legs.setdefault(cid, set()).add(leg)
        return cls(
            converter_legs={c: frozenset(s) for c, s in legs.items()}
        )

    def dead_legs(self, cid: ConverterId) -> FrozenSet[Leg]:
        return self.converter_legs.get(cid, frozenset())

    def cable_dead(self, u: SwitchId, v: SwitchId) -> bool:
        if u in self.switches or v in self.switches:
            return True
        return frozenset((u, v)) in self.cables

    def is_empty(self) -> bool:
        return not (self.converter_legs or self.cables or self.switches)

    def validate(self, ft: "FlatTree") -> None:
        """Raise :class:`ConfigurationError` naming any id unknown to ``ft``.

        A failure set referencing a converter or switch the plant does
        not contain would silently degrade *nothing* — every leg/cable
        lookup simply misses — so the entry points that consume failure
        sets (``FlatTree.materialize``, :func:`heal`) validate first and
        fail loudly instead.
        """
        for cid in sorted(self.converter_legs):
            if cid not in ft.converters:
                raise ConfigurationError(
                    f"failure set names unknown converter {cid}"
                )
        for switch in sorted(self.switches, key=repr):
            if switch not in ft.switches:
                raise ConfigurationError(
                    f"failure set names unknown switch {switch!r}"
                )
        for cable in sorted(self.cables, key=repr):
            for switch in sorted(cable, key=repr):
                if switch not in ft.switches:
                    raise ConfigurationError(
                        f"failure set names unknown switch {switch!r} "
                        f"in dead cable {tuple(sorted(cable, key=repr))}"
                    )


def heal(
    ft: FlatTree, failures: FailureSet
) -> Dict[ConverterId, ConverterConfig]:
    """Choose configurations that best survive ``failures``.

    Returns a full configuration assignment (unchanged converters keep
    their current config).  Per converter the choice maximizes, in
    order: the server staying attached, then the number of surviving
    switch-level circuits, then staying on the current config (avoid
    gratuitous churn).  Side pairs are decided jointly.
    """
    failures.validate(ft)
    assignment = ft.configs()
    decided: Set[ConverterId] = set()

    for left_id, right_id in ft.pairs:
        left, right = ft.converters[left_id], ft.converters[right_id]
        if _affected(left, failures) or _affected(right, failures):
            best = _best_pair_config(left, right, failures)
            assignment[left_id], assignment[right_id] = best
        decided.add(left_id)
        decided.add(right_id)

    for cid, conv in ft.converters.items():
        if cid in decided or not _affected(conv, failures):
            continue
        assignment[cid] = _best_single_config(conv, failures)
    return assignment


def _affected(conv: Converter, failures: FailureSet) -> bool:
    if failures.dead_legs(conv.cid):
        return True
    for switch in (conv.core, conv.agg, conv.edge):
        if switch in failures.switches:
            return True
    return False


def _score(links, stay: bool) -> Tuple[int, int, int]:
    """Servers kept attached, then surviving cables, then no churn."""
    attached = sum(1 for link in links if link[0] == "attach")
    return (attached, len(links) - attached, int(stay))


def _best_single_config(
    conv: Converter, failures: FailureSet
) -> ConverterConfig:
    candidates = [
        c for c in conv.valid_configs if c not in PAIRED_CONFIGS
    ]
    return max(candidates, key=lambda c: _score(
        conv.own_links(c, failures), c is conv.config))


def _best_pair_config(
    left: Converter, right: Converter, failures: FailureSet
) -> Tuple[ConverterConfig, ConverterConfig]:
    """Jointly score the pair's options (paired or both unpaired)."""
    unpaired = (ConverterConfig.DEFAULT, ConverterConfig.LOCAL)
    options = [(paired, paired)
               for paired in (ConverterConfig.SIDE, ConverterConfig.CROSS)]
    options += [(lc, rc) for lc in unpaired for rc in unpaired]

    def score(option: Tuple[ConverterConfig, ConverterConfig]):
        lc, rc = option
        links = (
            left.own_links(lc, failures)
            + right.own_links(rc, failures)
            + pair_links(left, right, {left.cid: lc, right.cid: rc},
                         failures)
        )
        return _score(links, option == (left.config, right.config))

    return max(options, key=score)


@dataclass(frozen=True)
class HealOutcome:
    """What :func:`heal_report` decided and what it could not save.

    ``assignment`` is the full post-heal configuration map;
    ``reconfigured`` the converters whose config actually changed;
    ``unrecoverable`` the converters whose server stays detached under
    *every* reachable configuration (e.g. a dead SERVER leg) — these
    must be reported, never asserted on.
    """

    assignment: Dict[ConverterId, ConverterConfig]
    reconfigured: Tuple[ConverterId, ...]
    unrecoverable: Tuple[ConverterId, ...]


def heal_report(
    ft: FlatTree, failures: FailureSet, t: float = 0.0
) -> HealOutcome:
    """Run :func:`heal` and account for what it achieved.

    Emits one ``core.failures.heal`` telemetry event with the counts,
    stamped at simulated time ``t`` (callers in the chaotic execution
    path pass the conversion clock).
    """
    assignment = heal(ft, failures)
    current = ft.configs()
    reconfigured = tuple(
        cid for cid in sorted(assignment)
        if assignment[cid] is not current[cid]
    )
    unrecoverable: List[ConverterId] = []
    for cid in sorted(ft.converters):
        conv = ft.converters[cid]
        if not _affected(conv, failures):
            continue
        links = conv.own_links(assignment[cid], failures)
        if not any(link[0] == "attach" for link in links):
            unrecoverable.append(cid)
    obs.event(
        "core.failures.heal",
        reconfigured=len(reconfigured),
        unrecoverable=len(unrecoverable),
        t=t,
    )
    obs.incr("core.failures.heals")
    return HealOutcome(
        assignment=assignment,
        reconfigured=reconfigured,
        unrecoverable=tuple(unrecoverable),
    )
