"""The chaos engine: seeded plant faults and command-level faults.

Two fault layers, both fully deterministic for a fixed seed:

* **Plant faults** — a sorted stream of :class:`ChaosEvent` marking a
  converter leg, a direct cable, or a whole switch dead (and possibly
  recovered) at a simulated instant.  :meth:`ChaosSchedule.failures_at`
  folds the stream into the :class:`~repro.core.failures.FailureSet`
  active at any time ``t``, which is exactly the input
  :func:`repro.core.failures.heal` and
  :meth:`repro.core.flattree.FlatTree.materialize` consume.
* **Command faults** — the control channel itself misbehaving: a
  converter command that times out (no ACK within the command timeout)
  or is NACKed outright.  :meth:`ChaosSchedule.command_fault` decides
  per ``(converter, attempt)`` via a stateless seeded hash, so the
  verdict does not depend on call order and replays are exact; tests
  can also script faults explicitly.

The :class:`ChaosClock` is the virtual clock the resilient executor
(:func:`repro.core.reconfigure.execute`) drives batch by batch; chaos
consults it only through the times the executor passes in, so the
engine itself holds no hidden wall-clock state.
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.core.converter import ConverterId
from repro.core.failures import FailureSet, Leg
from repro.core.flattree import FlatTree
from repro.topology.elements import CoreSwitch, SwitchId


class CommandFault(enum.Enum):
    """How a converter command can fail on the control channel."""

    TIMEOUT = "timeout"  # no acknowledgment within the command timeout
    NACK = "nack"        # the converter rejects the circuit change

    @property
    def is_timeout(self) -> bool:
        return self is CommandFault.TIMEOUT


#: :class:`ChaosEvent` actions.
FAIL = "fail"
RECOVER = "recover"
#: :class:`ChaosEvent` kinds.
LEG = "leg"
CABLE = "cable"
SWITCH = "switch"

_ACTIONS = (FAIL, RECOVER)
_KINDS = (LEG, CABLE, SWITCH)


@dataclass(frozen=True)
class ChaosEvent:
    """One timed plant fault or recovery.

    ``target`` depends on ``kind``: ``(converter_id, leg)`` for legs,
    ``(u, v)`` for direct cables, ``(switch,)`` for whole switches.
    """

    t: float
    action: str
    kind: str
    target: Tuple

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ConfigurationError(f"chaos event at negative time {self.t}")
        if self.action not in _ACTIONS:
            raise ConfigurationError(f"unknown chaos action {self.action!r}")
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown chaos kind {self.kind!r}")

    # -- convenience constructors ------------------------------------
    @classmethod
    def leg_fail(cls, t: float, cid: ConverterId, leg: Leg) -> "ChaosEvent":
        return cls(t, FAIL, LEG, (cid, leg))

    @classmethod
    def leg_recover(cls, t: float, cid: ConverterId, leg: Leg) -> "ChaosEvent":
        return cls(t, RECOVER, LEG, (cid, leg))

    @classmethod
    def cable_fail(cls, t: float, u: SwitchId, v: SwitchId) -> "ChaosEvent":
        return cls(t, FAIL, CABLE, (u, v))

    @classmethod
    def cable_recover(cls, t: float, u: SwitchId, v: SwitchId) -> "ChaosEvent":
        return cls(t, RECOVER, CABLE, (u, v))

    @classmethod
    def switch_fail(cls, t: float, switch: SwitchId) -> "ChaosEvent":
        return cls(t, FAIL, SWITCH, (switch,))

    @classmethod
    def switch_recover(cls, t: float, switch: SwitchId) -> "ChaosEvent":
        return cls(t, RECOVER, SWITCH, (switch,))


class ChaosClock:
    """Monotonic virtual clock for chaotic executions.

    The executor owns the arithmetic (it computes batch instants from
    the schedule formula so the clean path is byte-identical to
    :meth:`~repro.core.reconfigure.Schedule.batch_windows`); the clock
    only enforces monotonicity.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ConfigurationError("clock cannot start before t=0")
        self.now = start

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` seconds and return the new instant."""
        if dt < 0:
            raise ConfigurationError(f"clock cannot run backwards ({dt})")
        self.now += dt
        return self.now

    def seek(self, t: float) -> float:
        """Jump to absolute instant ``t`` (must not move backwards)."""
        if t < self.now - 1e-12:
            raise ConfigurationError(
                f"clock cannot seek backwards from {self.now} to {t}"
            )
        self.now = t
        return self.now


def _target_label(event: "ChaosEvent") -> str:
    parts = []
    for part in event.target:
        parts.append(part.name.lower() if isinstance(part, enum.Enum)
                     else str(part))
    return "-".join(parts)


def _audit_recoveries(
    events: Tuple["ChaosEvent", ...],
) -> Tuple["ChaosEvent", ...]:
    """Recoveries targeting a healthy component, audited rather than raised.

    A ``recover`` for a component that never failed (or already
    recovered) is legitimate whenever something else — the remediation
    plane, an operator — repaired the plant before the schedule got
    there.  ``failures_at`` already folds such events as no-ops; this
    pass makes them *visible*, emitting one ``chaos.recover_noop``
    audit event per redundant recovery at schedule-construction time.
    """
    down: Set[Tuple] = set()
    redundant: List["ChaosEvent"] = []
    for event in events:
        key = (event.kind, frozenset(event.target)
               if event.kind == CABLE else event.target)
        if event.action == FAIL:
            down.add(key)
        elif key in down:
            down.discard(key)
        else:
            redundant.append(event)
            obs.event("chaos.recover_noop", component=event.kind,
                      target=_target_label(event), t=event.t)
    return tuple(redundant)


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault-injection schedule.

    ``events`` is kept sorted by time.  ``command_fault_rate`` is the
    per-attempt probability that a converter command faults (hashed from
    ``seed``, the converter id, and the attempt number — stateless and
    order-independent); ``scripted_faults`` pins exact verdicts for
    specific ``(converter_id, attempt)`` pairs and wins over the random
    draw, which is how tests stage reproducible fault sequences.
    """

    events: Tuple[ChaosEvent, ...] = ()
    command_fault_rate: float = 0.0
    seed: int = 0
    scripted_faults: Mapping[Tuple[ConverterId, int], CommandFault] = field(
        default_factory=dict
    )
    #: Recoveries for components that were healthy when they landed
    #: (never failed, or already recovered).  They are no-ops by
    #: construction — ``failures_at`` folds them silently — but each
    #: is audited with a ``chaos.recover_noop`` event so remediation
    #: racing the chaos schedule is observable, never an error.
    redundant_recoveries: Tuple[ChaosEvent, ...] = field(
        default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.command_fault_rate <= 1.0:
            raise ConfigurationError(
                f"command fault rate must be in [0, 1], "
                f"got {self.command_fault_rate}"
            )
        ordered = tuple(sorted(self.events, key=lambda e: e.t))
        object.__setattr__(self, "events", ordered)
        object.__setattr__(
            self, "redundant_recoveries", _audit_recoveries(ordered))

    def is_null(self) -> bool:
        """True when this schedule can never inject anything."""
        return (not self.events and self.command_fault_rate == 0.0
                and not self.scripted_faults)

    # -- command faults ----------------------------------------------
    def command_fault(
        self, cid: ConverterId, attempt: int
    ) -> Optional[CommandFault]:
        """The fault (if any) hitting command ``attempt`` to ``cid``.

        Attempts are 1-based.  Scripted verdicts win; otherwise a
        stateless hash draw against ``command_fault_rate`` decides, with
        the low bit picking timeout vs NACK.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempts are 1-based, got {attempt}")
        scripted = self.scripted_faults.get((cid, attempt))
        if scripted is not None:
            return scripted
        if self.command_fault_rate <= 0.0:
            return None
        digest = zlib.crc32(repr((self.seed, cid, attempt)).encode())
        if digest / 0xFFFFFFFF >= self.command_fault_rate:
            return None
        return CommandFault.TIMEOUT if digest & 1 else CommandFault.NACK

    # -- plant faults ------------------------------------------------
    def failures_at(self, t: float) -> FailureSet:
        """Fold every event at or before ``t`` into a failure set."""
        legs: Dict[ConverterId, Set[Leg]] = {}
        cables: Set[frozenset] = set()
        switches: Set[SwitchId] = set()
        for event in self.events:
            if event.t > t:
                break
            if event.kind == LEG:
                cid, leg = event.target
                if event.action == FAIL:
                    legs.setdefault(cid, set()).add(leg)
                else:
                    legs.get(cid, set()).discard(leg)
            elif event.kind == CABLE:
                key = frozenset(event.target)
                if event.action == FAIL:
                    cables.add(key)
                else:
                    cables.discard(key)
            else:
                (switch,) = event.target
                if event.action == FAIL:
                    switches.add(switch)
                else:
                    switches.discard(switch)
        return FailureSet(
            converter_legs={
                cid: frozenset(dead) for cid, dead in legs.items() if dead
            },
            cables=frozenset(cables),
            switches=frozenset(switches),
        )

    def last_event_time(self) -> float:
        return self.events[-1].t if self.events else 0.0

    # -- construction ------------------------------------------------
    @classmethod
    def random(
        cls,
        ft: FlatTree,
        *,
        seed: int = 0,
        duration: float = 1.0,
        leg_fault_rate: float = 0.0,
        cable_fault_rate: float = 0.0,
        switch_fault_rate: float = 0.0,
        recovery_fraction: float = 0.5,
        command_fault_rate: float = 0.0,
    ) -> "ChaosSchedule":
        """Draw a schedule against a concrete plant, deterministically.

        Each converter independently loses one random leg with
        probability ``leg_fault_rate`` at a uniform time in
        ``[0, duration)``; each direct cable dies with probability
        ``cable_fault_rate``; each core switch with
        ``switch_fault_rate`` (only the redundant core layer fails
        whole — edge/agg switch death strands directly-attached servers
        with no recovery move to score).  A ``recovery_fraction`` of
        plant faults recover at a uniform time before ``duration``.
        Iteration orders are sorted, so the same seed always yields the
        same schedule.
        """
        if duration <= 0:
            raise ConfigurationError("chaos duration must be positive")
        for name, rate in (("leg", leg_fault_rate),
                           ("cable", cable_fault_rate),
                           ("switch", switch_fault_rate),
                           ("recovery", recovery_fraction)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} rate must be in [0, 1], got {rate}"
                )
        rng = random.Random(seed)
        events: List[ChaosEvent] = []

        def maybe_recover(t: float,
                          make: Callable[[float], ChaosEvent]) -> None:
            if rng.random() < recovery_fraction:
                events.append(make(rng.uniform(t, duration)))

        for cid in sorted(ft.converters):
            if rng.random() >= leg_fault_rate:
                continue
            leg = rng.choice(list(Leg))
            t = rng.uniform(0.0, duration)
            events.append(ChaosEvent.leg_fail(t, cid, leg))
            maybe_recover(t, lambda rt, c=cid, l=leg:
                          ChaosEvent.leg_recover(rt, c, l))
        for u, v in ft._direct_cables:
            if rng.random() >= cable_fault_rate:
                continue
            t = rng.uniform(0.0, duration)
            events.append(ChaosEvent.cable_fail(t, u, v))
            maybe_recover(t, lambda rt, a=u, b=v:
                          ChaosEvent.cable_recover(rt, a, b))
        for c in range(ft.params.num_cores):
            if rng.random() >= switch_fault_rate:
                continue
            switch = CoreSwitch(c)
            t = rng.uniform(0.0, duration)
            events.append(ChaosEvent.switch_fail(t, switch))
            maybe_recover(t, lambda rt, s=switch:
                          ChaosEvent.switch_recover(rt, s))
        return cls(
            events=tuple(events),
            command_fault_rate=command_fault_rate,
            seed=seed,
        )

    def describe(self) -> str:
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        plant = (", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
                 or "no plant faults")
        return (
            f"chaos(seed {self.seed}: {plant}, "
            f"command fault rate {self.command_fault_rate:g})"
        )
