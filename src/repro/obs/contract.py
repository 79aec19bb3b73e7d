"""The telemetry wire contract — the single source of event truth.

Every telemetry line a sink emits is a flat JSON object carrying
``ts`` (number), ``name`` (non-empty string), ``kind`` (one of
:data:`KINDS`), and either ``value`` (number) or ``duration_s``
(non-negative number).  Span events additionally carry
:data:`SPAN_FIELDS` — ``path``, ``depth``, and the trace context
``span_id``/``parent_id`` that lets ``repro.obs.perf`` rebuild the
call tree; the monitor's link events carry per-kind fields; one-off
``event`` lines must use a name registered in
:data:`KNOWN_EVENT_NAMES` and carry that name's required attributes
(:data:`EVENT_FIELDS`).

This module is consumed by *three* independent checkers, which is why
it lives here and nowhere else:

* ``tools/check_telemetry.py`` — the runtime JSONL validator run by
  ``make telemetry-smoke`` / ``make monitor-smoke`` / CI;
* ``tools/flatlint`` rule **FT002** — the static pass that proves, at
  lint time, that every literal ``obs.event(...)`` name is registered
  here *and* that every registered name still has an emit site;
* the test suite (``tests/obs/test_contract.py``).

Register a new one-off event by adding one :data:`EVENT_FIELDS` entry
(plus, when the attributes deserve value-level validation, an
:data:`EVENT_CHECKS` function) and documenting it in
``docs/observability.md`` — ``make lint`` fails until the emit site
and the registration agree in both directions.
"""

from __future__ import annotations

import json
from typing import Any, Callable, FrozenSet, List, Mapping

#: Every legal value of the ``kind`` field.
KINDS: FrozenSet[str] = frozenset({
    "counter", "gauge", "histogram", "timer", "span", "event",
    "link_sample", "link_down", "link_up",
})

#: Required fields on every ``kind == "span"`` event, beyond the
#: universal ``ts``/``name``/``kind``/``duration_s``.  ``span_id`` is a
#: positive integer unique within a run (deterministic per-process
#: counter, reset by ``repro.obs.enable``); ``parent_id`` is the
#: enclosing span's id or ``null`` at the root.  Spans may additionally
#: carry free-form call-site attributes and, under tracemalloc
#: accounting, a non-negative numeric ``mem_peak_kb``.
SPAN_FIELDS: FrozenSet[str] = frozenset({
    "path", "depth", "span_id", "parent_id",
})

#: Required attributes per registered one-off event name (kind ==
#: ``event``).  The keys of this mapping *are* the event-name registry:
#: an emit site using a name absent here fails both the runtime
#: validator and flatlint FT002; a key with no emit site fails FT002.
EVENT_FIELDS: Mapping[str, FrozenSet[str]] = {
    "core.profiling.skipped_candidate": frozenset({"m", "n", "reason"}),
    "core.reconfigure.converter_retry": frozenset(
        {"converter", "attempt", "batch", "fault", "t"}),
    "core.reconfigure.batch_rollback": frozenset(
        {"batch", "converters", "reason", "t"}),
    "core.failures.heal": frozenset({"reconfigured", "unrecoverable", "t"}),
    "flowsim.flow_rerouted": frozenset({"flow_id", "outcome", "t"}),
    "experiments.degradation.solver_failure": frozenset(
        {"topology", "fraction", "draw"}),
    "core.scaling.candidate_skipped": frozenset({"candidate", "reason"}),
    "perf.diff_session": frozenset({"base", "new", "grown", "shrunk"}),
    "health.alert_firing": frozenset(
        {"rule", "metric", "value", "threshold", "t"}),
    "health.alert_resolved": frozenset(
        {"rule", "metric", "fired_for", "t"}),
    "health.slo_burn": frozenset(
        {"slo", "burn_rate", "budget_remaining", "t"}),
    "selfheal.action_planned": frozenset(
        {"action", "rule", "alert_t", "t"}),
    "selfheal.action_started": frozenset({"action", "rule", "t"}),
    "selfheal.action_succeeded": frozenset(
        {"action", "rule", "latency_s", "t"}),
    "selfheal.action_failed": frozenset({"action", "rule", "reason", "t"}),
    "selfheal.action_suppressed": frozenset(
        {"action", "rule", "reason", "t"}),
    "chaos.recover_noop": frozenset({"component", "target", "t"}),
}

#: The contract's one-off event names — derived from
#: :data:`EVENT_FIELDS` so the two can never drift.
KNOWN_EVENT_NAMES: FrozenSet[str] = frozenset(EVENT_FIELDS)


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_event_time(event: Mapping[str, Any], problems: List[str],
                      label: str) -> None:
    t = event.get("t")
    if not _numeric(t):
        problems.append(f"{label} missing numeric 't'")
    elif t < 0:
        problems.append(f"negative {label} time {t}")


def _check_counted(event: Mapping[str, Any], problems: List[str], label: str,
                   field_name: str, minimum: int = 0) -> None:
    value = event.get(field_name)
    if not isinstance(value, int) or isinstance(value, bool):
        problems.append(f"{label} missing integer {field_name!r}")
    elif value < minimum:
        problems.append(f"{label} {field_name!r} below {minimum}: {value}")


def _check_named(event: Mapping[str, Any], problems: List[str], label: str,
                 field_name: str) -> None:
    value = event.get(field_name)
    if not isinstance(value, str) or not value.strip():
        problems.append(f"{label} missing non-empty {field_name!r}")


def _check_skipped_candidate(event: Mapping[str, Any],
                             problems: List[str]) -> None:
    _check_counted(event, problems, "skipped_candidate", "m", minimum=1)
    _check_counted(event, problems, "skipped_candidate", "n", minimum=1)
    _check_named(event, problems, "skipped_candidate", "reason")


def _check_converter_retry(event: Mapping[str, Any],
                           problems: List[str]) -> None:
    _check_named(event, problems, "converter_retry", "converter")
    _check_counted(event, problems, "converter_retry", "attempt", minimum=1)
    _check_counted(event, problems, "converter_retry", "batch")
    if event.get("fault") not in ("timeout", "nack"):
        problems.append(
            "converter_retry 'fault' must be 'timeout' or 'nack'"
        )
    _check_event_time(event, problems, "converter_retry")


def _check_batch_rollback(event: Mapping[str, Any],
                          problems: List[str]) -> None:
    _check_counted(event, problems, "batch_rollback", "batch")
    _check_counted(event, problems, "batch_rollback", "converters", minimum=1)
    _check_named(event, problems, "batch_rollback", "reason")
    _check_event_time(event, problems, "batch_rollback")


def _check_heal(event: Mapping[str, Any], problems: List[str]) -> None:
    _check_counted(event, problems, "heal", "reconfigured")
    _check_counted(event, problems, "heal", "unrecoverable")
    _check_event_time(event, problems, "heal")


def _check_flow_rerouted(event: Mapping[str, Any],
                         problems: List[str]) -> None:
    _check_counted(event, problems, "flow_rerouted", "flow_id")
    if event.get("outcome") not in ("rerouted", "failed"):
        problems.append(
            "flow_rerouted 'outcome' must be 'rerouted' or 'failed'"
        )
    _check_event_time(event, problems, "flow_rerouted")


def _check_solver_failure(event: Mapping[str, Any],
                          problems: List[str]) -> None:
    _check_named(event, problems, "solver_failure", "topology")
    fraction = event.get("fraction")
    if not _numeric(fraction):
        problems.append("solver_failure missing numeric 'fraction'")
    elif not 0 <= fraction <= 1:
        problems.append(f"solver_failure 'fraction' outside [0, 1]: {fraction}")
    _check_counted(event, problems, "solver_failure", "draw")


def _check_candidate_skipped(event: Mapping[str, Any],
                             problems: List[str]) -> None:
    _check_named(event, problems, "candidate_skipped", "candidate")
    _check_named(event, problems, "candidate_skipped", "reason")


def _check_diff_session(event: Mapping[str, Any],
                        problems: List[str]) -> None:
    _check_named(event, problems, "diff_session", "base")
    _check_named(event, problems, "diff_session", "new")
    _check_counted(event, problems, "diff_session", "grown")
    _check_counted(event, problems, "diff_session", "shrunk")


def _check_alert_firing(event: Mapping[str, Any],
                        problems: List[str]) -> None:
    _check_named(event, problems, "alert_firing", "rule")
    _check_named(event, problems, "alert_firing", "metric")
    if not _numeric(event.get("threshold")):
        problems.append("alert_firing missing numeric 'threshold'")
    _check_event_time(event, problems, "alert_firing")


def _check_alert_resolved(event: Mapping[str, Any],
                          problems: List[str]) -> None:
    _check_named(event, problems, "alert_resolved", "rule")
    _check_named(event, problems, "alert_resolved", "metric")
    fired_for = event.get("fired_for")
    if not _numeric(fired_for):
        problems.append("alert_resolved missing numeric 'fired_for'")
    elif fired_for < 0:
        problems.append(f"negative alert_resolved 'fired_for' {fired_for}")
    _check_event_time(event, problems, "alert_resolved")


def _check_slo_burn(event: Mapping[str, Any],
                    problems: List[str]) -> None:
    _check_named(event, problems, "slo_burn", "slo")
    burn = event.get("burn_rate")
    if not _numeric(burn):
        problems.append("slo_burn missing numeric 'burn_rate'")
    elif burn < 0:
        problems.append(f"negative slo_burn 'burn_rate' {burn}")
    # budget_remaining may legitimately go negative once overspent.
    if not _numeric(event.get("budget_remaining")):
        problems.append("slo_burn missing numeric 'budget_remaining'")
    _check_event_time(event, problems, "slo_burn")


def _check_selfheal_common(event: Mapping[str, Any], problems: List[str],
                           label: str) -> None:
    _check_named(event, problems, label, "action")
    _check_named(event, problems, label, "rule")
    _check_event_time(event, problems, label)


def _check_action_planned(event: Mapping[str, Any],
                          problems: List[str]) -> None:
    _check_selfheal_common(event, problems, "action_planned")
    alert_t = event.get("alert_t")
    if not _numeric(alert_t):
        problems.append("action_planned missing numeric 'alert_t'")
    elif alert_t < 0:
        problems.append(f"negative action_planned 'alert_t' {alert_t}")


def _check_action_started(event: Mapping[str, Any],
                          problems: List[str]) -> None:
    _check_selfheal_common(event, problems, "action_started")


def _check_action_succeeded(event: Mapping[str, Any],
                            problems: List[str]) -> None:
    _check_selfheal_common(event, problems, "action_succeeded")
    latency = event.get("latency_s")
    if not _numeric(latency):
        problems.append("action_succeeded missing numeric 'latency_s'")
    elif latency < 0:
        problems.append(f"negative action_succeeded 'latency_s' {latency}")


def _check_action_failed(event: Mapping[str, Any],
                         problems: List[str]) -> None:
    _check_selfheal_common(event, problems, "action_failed")
    _check_named(event, problems, "action_failed", "reason")


def _check_action_suppressed(event: Mapping[str, Any],
                             problems: List[str]) -> None:
    _check_selfheal_common(event, problems, "action_suppressed")
    _check_named(event, problems, "action_suppressed", "reason")


def _check_recover_noop(event: Mapping[str, Any],
                        problems: List[str]) -> None:
    # The wire-level 'kind' field is always "event"; the chaos
    # component kind rides in 'component' to avoid the collision.
    if event.get("component") not in ("leg", "cable", "switch"):
        problems.append(
            "recover_noop 'component' must be 'leg', 'cable' or 'switch'")
    _check_named(event, problems, "recover_noop", "target")
    _check_event_time(event, problems, "recover_noop")


#: Per-name value-level schema checks for registered one-off events.
EVENT_CHECKS: Mapping[str, Callable[[Mapping[str, Any], List[str]], None]] = {
    "core.profiling.skipped_candidate": _check_skipped_candidate,
    "core.reconfigure.converter_retry": _check_converter_retry,
    "core.reconfigure.batch_rollback": _check_batch_rollback,
    "core.failures.heal": _check_heal,
    "flowsim.flow_rerouted": _check_flow_rerouted,
    "experiments.degradation.solver_failure": _check_solver_failure,
    "core.scaling.candidate_skipped": _check_candidate_skipped,
    "perf.diff_session": _check_diff_session,
    "health.alert_firing": _check_alert_firing,
    "health.alert_resolved": _check_alert_resolved,
    "health.slo_burn": _check_slo_burn,
    "selfheal.action_planned": _check_action_planned,
    "selfheal.action_started": _check_action_started,
    "selfheal.action_succeeded": _check_action_succeeded,
    "selfheal.action_failed": _check_action_failed,
    "selfheal.action_suppressed": _check_action_suppressed,
    "chaos.recover_noop": _check_recover_noop,
}


def _check_link_fields(event: Mapping[str, Any],
                       problems: List[str]) -> None:
    _check_named(event, problems, "link event", "link")
    t = event.get("t")
    if not _numeric(t):
        problems.append("link event missing numeric 't'")
    elif t < 0:
        problems.append(f"negative link event time {t}")


def _check_link_sample(event: Mapping[str, Any],
                       problems: List[str]) -> None:
    for field_name in ("utilization", "rate", "capacity"):
        value = event.get(field_name)
        if not _numeric(value):
            problems.append(f"link_sample missing numeric {field_name!r}")
        elif value < 0:
            problems.append(f"negative {field_name!r} {value}")
    if event.get("capacity") == 0:
        problems.append("link_sample has zero 'capacity'")
    active = event.get("active_flows")
    if not isinstance(active, int) or isinstance(active, bool) or active < 0:
        problems.append(
            "link_sample missing non-negative integer 'active_flows'"
        )


def check_event(event: Mapping[str, Any]) -> List[str]:
    """Validate one already-decoded telemetry event (empty = valid)."""
    problems: List[str] = []
    ts = event.get("ts")
    if not _numeric(ts):
        problems.append("missing/non-numeric 'ts'")
    name = event.get("name")
    if not isinstance(name, str) or not name.strip():
        problems.append("missing/empty 'name'")
    kind = event.get("kind")
    if kind not in KINDS:
        problems.append(
            f"unknown 'kind' {kind!r} (expected one of {sorted(KINDS)})"
        )

    has_value = _numeric(event.get("value"))
    duration = event.get("duration_s")
    has_duration = _numeric(duration)
    if not has_value and not has_duration:
        problems.append("needs a numeric 'value' or 'duration_s'")
    if has_duration and duration < 0:
        problems.append(f"negative 'duration_s' {duration}")

    if kind == "span":
        if not isinstance(event.get("path"), str):
            problems.append("span missing 'path'")
        if not isinstance(event.get("depth"), int):
            problems.append("span missing integer 'depth'")
        span_id = event.get("span_id")
        if not isinstance(span_id, int) or isinstance(span_id, bool):
            problems.append("span missing integer 'span_id'")
        elif span_id < 1:
            problems.append(f"span 'span_id' must be >= 1: {span_id}")
        if "parent_id" not in event:
            problems.append("span missing 'parent_id' (null at the root)")
        else:
            parent_id = event.get("parent_id")
            if parent_id is not None and (
                    not isinstance(parent_id, int)
                    or isinstance(parent_id, bool) or parent_id < 1):
                problems.append(
                    f"span 'parent_id' must be null or an integer >= 1: "
                    f"{parent_id!r}")
            elif (isinstance(parent_id, int)
                    and isinstance(span_id, int)
                    and not isinstance(parent_id, bool)
                    and parent_id >= span_id):
                problems.append(
                    f"span 'parent_id' {parent_id} not below 'span_id' "
                    f"{span_id} (parents are created first)")
        mem = event.get("mem_peak_kb")
        if mem is not None and (not _numeric(mem) or mem < 0):
            problems.append(
                f"span 'mem_peak_kb' must be a non-negative number: {mem!r}")
    elif kind == "event":
        if isinstance(name, str) and name not in KNOWN_EVENT_NAMES:
            problems.append(
                f"unknown event type {name!r} (known: "
                f"{sorted(KNOWN_EVENT_NAMES)}; register new one-off "
                f"events in repro.obs.contract and the docs)"
            )
        check = EVENT_CHECKS.get(name) if isinstance(name, str) else None
        if check is not None:
            check(event, problems)
    elif kind in ("link_sample", "link_down", "link_up"):
        _check_link_fields(event, problems)
        if kind == "link_sample":
            _check_link_sample(event, problems)
    return problems


def check_line(line: str, lineno: int = 0) -> List[str]:
    """Return a list of problems with one JSONL line (empty = valid)."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    if not isinstance(event, dict):
        return ["not a JSON object"]
    return check_event(event)
