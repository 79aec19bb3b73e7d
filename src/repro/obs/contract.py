"""The telemetry wire contract — the single source of event truth.

Every telemetry line a sink emits is a flat JSON object carrying
``ts`` (number), ``name`` (non-empty string), ``kind`` (one of
:data:`KINDS`), and either ``value`` (number) or ``duration_s``
(non-negative number); every number it asks for must be finite, so
NaN and ±inf fail wherever a number is expected.  Spans and the
monitor's link events also carry the fields :data:`KIND_FIELDS`
declares for their kind; a one-off ``event`` line must use a name
registered in :data:`EVENT_FIELDS` and carry the fields declared
there.  Each declaration maps a field to its :class:`FieldType`, so one
table says both which fields a line needs and what each must hold;
:func:`check_event` is one walk of it.

This module is consumed by *three* independent checkers, which is why
it lives here and nowhere else:

* ``tools/check_telemetry.py`` — the runtime JSONL validator run by
  ``make telemetry-smoke`` / ``make monitor-smoke`` / CI;
* ``tools/flatlint`` rule **FT002** — the static pass that proves, at
  lint time, that every literal ``obs.event(...)`` name is registered
  here and passes the keys of its :data:`EVENT_FIELDS` entry, *and*
  that every registered name still has an emit site;
* the test suite (``tests/obs/test_contract.py``).

Register a new one-off event by adding one typed :data:`EVENT_FIELDS`
entry and documenting it in ``docs/observability.md`` — ``make lint``
fails until the emit site and the registration agree in both
directions.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, FrozenSet, List, Mapping, NamedTuple


def _numeric(value: Any) -> bool:
    """A finite JSON number: an int, or a float that is not NaN or ±inf."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float)
                                      and math.isfinite(value))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class FieldType(NamedTuple):
    """What one declared field must hold."""

    what: str                     # the expectation, as problems quote it
    holds: Callable[[Any], bool]  # the test a decoded JSON value passes


# Every number is finite (``_numeric``): ``json.loads`` reads a bare NaN
# or Infinity, and ``NaN < 0`` is false, so a range test alone would let
# NaN through.  No producer writes a non-finite number into a declared
# field, ``ts``, ``value`` or ``duration_s``.  The registry's NaN
# readings (an unset gauge, an empty histogram's ``min`` and ``max``)
# live only in ``registry.snapshot()``, which no wire line carries, and
# ``AlertRule`` refuses a non-finite threshold.  No field is NaN-tolerant.
NAME = FieldType("a non-empty string",
                 lambda v: isinstance(v, str) and bool(v.strip()))
NUMBER = FieldType("a number", _numeric)
NON_NEGATIVE = FieldType("a non-negative number",
                         lambda v: _numeric(v) and v >= 0)
POSITIVE = FieldType("a positive number", lambda v: _numeric(v) and v > 0)
FRACTION = FieldType("a number in [0, 1]",
                     lambda v: _numeric(v) and 0 <= v <= 1)
#: Simulated seconds on the run's own clock (the ``t`` fields).
TIME = NON_NEGATIVE


def count(minimum: int = 0) -> FieldType:
    """An integer (never a bool) no smaller than ``minimum``."""
    return FieldType(f"an integer >= {minimum}",
                     lambda v: _integer(v) and v >= minimum)


def one_of(*choices: str) -> FieldType:
    """Exactly one of ``choices``."""
    return FieldType(" or ".join(map(repr, choices)), lambda v: v in choices)


def nullable(inner: FieldType) -> FieldType:
    """``inner``, or null; the field itself must still be present."""
    return FieldType(f"null or {inner.what}",
                     lambda v: v is None or inner.holds(v))


_LINK: Mapping[str, FieldType] = {"link": NAME, "t": TIME}

#: Required fields per non-metric ``kind``.  ``span_id`` comes from a
#: deterministic per-process counter (reset by ``repro.obs.enable``);
#: ``parent_id`` is the enclosing span's id, below ``span_id`` because
#: parents are created first, or null at a root.  Spans may also carry
#: free-form call-site attributes and, under tracemalloc accounting, a
#: non-negative ``mem_peak_kb``.
KIND_FIELDS: Mapping[str, Mapping[str, FieldType]] = {
    "span": {"path": NAME, "depth": count(), "span_id": count(1),
             "parent_id": nullable(count(1))},
    "link_sample": {**_LINK, "utilization": NON_NEGATIVE,
                    "rate": NON_NEGATIVE, "capacity": POSITIVE,
                    "active_flows": count()},
    "link_down": _LINK,
    "link_up": {**_LINK, "dark_s": NON_NEGATIVE},
}

#: Every legal value of the ``kind`` field.
KINDS: FrozenSet[str] = frozenset(
    {"counter", "gauge", "histogram", "timer", "event", *KIND_FIELDS})

#: Required fields per registered one-off event name (kind ==
#: ``event``).  The keys of this mapping *are* the event-name registry:
#: an emit site using a name absent here fails both the runtime
#: validator and flatlint FT002; a key with no emit site fails FT002.
EVENT_FIELDS: Mapping[str, Mapping[str, FieldType]] = {
    "core.profiling.skipped_candidate": {
        "m": count(1), "n": count(1), "reason": NAME},
    "core.reconfigure.converter_retry": {
        "converter": NAME, "attempt": count(1), "batch": count(),
        "fault": one_of("timeout", "nack"), "t": TIME},
    "core.reconfigure.batch_rollback": {
        "batch": count(), "converters": count(1), "reason": NAME,
        "t": TIME},
    "core.failures.heal": {
        "reconfigured": count(), "unrecoverable": count(), "t": TIME},
    "flowsim.flow_rerouted": {
        "flow_id": count(), "outcome": one_of("rerouted", "failed"),
        "t": TIME},
    "experiments.degradation.solver_failure": {
        "topology": NAME, "fraction": FRACTION, "draw": count()},
    "core.scaling.candidate_skipped": {"candidate": NAME, "reason": NAME},
    "perf.diff_session": {
        "base": NAME, "new": NAME, "grown": count(), "shrunk": count()},
    "health.alert_firing": {
        "rule": NAME, "metric": NAME, "value": NUMBER, "threshold": NUMBER,
        "t": TIME},
    "health.alert_resolved": {
        "rule": NAME, "metric": NAME, "fired_for": NON_NEGATIVE, "t": TIME},
    # budget_remaining goes negative once the budget is overspent.
    "health.slo_burn": {
        "slo": NAME, "burn_rate": NON_NEGATIVE, "budget_remaining": NUMBER,
        "t": TIME},
    "selfheal.action_planned": {
        "action": NAME, "rule": NAME, "alert_t": TIME, "t": TIME},
    "selfheal.action_started": {"action": NAME, "rule": NAME, "t": TIME},
    "selfheal.action_succeeded": {
        "action": NAME, "rule": NAME, "latency_s": NON_NEGATIVE, "t": TIME},
    "selfheal.action_failed": {
        "action": NAME, "rule": NAME, "reason": NAME, "t": TIME},
    "selfheal.action_suppressed": {
        "action": NAME, "rule": NAME, "reason": NAME, "t": TIME},
    # The wire-level 'kind' is always "event"; the chaos component kind
    # rides in 'component' to avoid the collision.
    "chaos.recover_noop": {
        "component": one_of("leg", "cable", "switch"), "target": NAME,
        "t": TIME},
}

#: The contract's one-off event names — derived from
#: :data:`EVENT_FIELDS` so the two can never drift.
KNOWN_EVENT_NAMES: FrozenSet[str] = frozenset(EVENT_FIELDS)


def check_event(event: Mapping[str, Any]) -> List[str]:
    """Validate one already-decoded telemetry event (empty = valid)."""
    problems: List[str] = []
    if not _numeric(event.get("ts")):
        problems.append("missing/non-numeric/non-finite 'ts'")
    name = event.get("name")
    if not NAME.holds(name):
        problems.append("missing/empty 'name'")
    kind = event.get("kind")
    # A JSON list or object is unhashable: test the type before the set.
    if not isinstance(kind, str) or kind not in KINDS:
        problems.append(
            f"unknown 'kind' {kind!r} (expected one of {sorted(KINDS)})"
        )
    value, duration = event.get("value"), event.get("duration_s")
    if not _numeric(value) and not _numeric(duration):
        problems.append("needs a finite numeric 'value' or 'duration_s'")
    for field, number in (("value", value), ("duration_s", duration)):
        if isinstance(number, float) and not math.isfinite(number):
            problems.append(f"non-finite {field!r} {number}")
    if _numeric(duration) and duration < 0:
        problems.append(f"negative 'duration_s' {duration}")

    fields: Mapping[str, FieldType] = {}
    label = kind
    if kind == "event" and isinstance(name, str):
        label = name
        if name in EVENT_FIELDS:
            fields = EVENT_FIELDS[name]
        else:
            problems.append(
                f"unknown event type {name!r} (known: "
                f"{sorted(KNOWN_EVENT_NAMES)}; register new one-off "
                f"events in repro.obs.contract and the docs)"
            )
    elif isinstance(kind, str) and kind in KIND_FIELDS:
        fields = KIND_FIELDS[kind]
    for field, expected in fields.items():
        if field not in event:
            problems.append(f"{label} missing {field!r} ({expected.what})")
        elif not expected.holds(event[field]):
            problems.append(f"{label} {field!r} must be {expected.what}: "
                            f"{event[field]!r}")

    if kind == "span":
        span_id, parent_id = event.get("span_id"), event.get("parent_id")
        if _integer(span_id) and _integer(parent_id) and parent_id >= span_id:
            problems.append(
                f"span 'parent_id' {parent_id} not below 'span_id' "
                f"{span_id} (parents are created first)")
        mem = event.get("mem_peak_kb")
        if mem is not None and not NON_NEGATIVE.holds(mem):
            problems.append(
                f"span 'mem_peak_kb' must be {NON_NEGATIVE.what}: {mem!r}")
    return problems


def check_line(line: str) -> List[str]:
    """Return a list of problems with one JSONL line (empty = valid)."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(event, dict):
        return ["not a JSON object"]
    return check_event(event)
