"""Durable hotspot-campaign artifacts: ``HOTSPOTS_<seq>.json``.

A hotspot campaign (``flattree hotspots``) runs a scripted battery of
the library's expensive phases — fat-tree build, Clos->random
conversion, KSP, MCF, flowsim — under the sampling profiler
(:mod:`repro.obs.sampler`) and records the result in one repo-root
``HOTSPOTS_<seq>.json``, the artifact the vectorization/sharding work
(ROADMAP open items 1-2) cites when deciding what to optimize.

The document (schema :data:`SCHEMA`) carries the environment
fingerprint reused from :mod:`repro.obs.bench`, per-stage wall time and
sample counts, the top functions ranked by self time with the span
paths they ran under, and the raw folded stacks so the flame graph
round-trips through ``python -m tools.perfreport hotspots``.

Files go through the bench session-file layer
(:func:`repro.obs.bench.write_json` / :func:`~repro.obs.bench.read_json`):
NaN-scrubbed with sorted keys, so identical campaigns produce
structurally identical documents.  Sequencing is the BENCH one under
the :data:`PREFIX` prefix (:func:`repro.obs.bench.session_paths`):
numbered files form the trajectory; free-form tags
(``HOTSPOTS_smoke.json``) are ignored by discovery and never claim a
sequence slot.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.bench import environment_fingerprint, read_json, write_json
from repro.obs.sampler import SampleProfile

__all__ = [
    "PREFIX",
    "SCHEMA",
    "build_document",
    "load_document",
    "render_document",
    "validate_document",
    "write_document",
]

#: Document schema identifier; bump the suffix on breaking change.
SCHEMA = "flattree.hotspots/1"

#: File prefix of the repo-root artifacts: ``HOTSPOTS_<seq>.json``.
PREFIX = "HOTSPOTS"

#: A folded-stack line: frames joined by ``;`` then an integer weight.
_FOLDED_LINE = re.compile(r"^\S.* \d+$")

#: A full decoded hotspot document.
HotspotDocument = Dict[str, Any]


def build_document(
    profile: SampleProfile,
    stages: Sequence[Mapping[str, object]],
    *,
    k: int,
    label: str = "hotspots",
    top: int = 60,
    root: Optional[Path] = None,
) -> HotspotDocument:
    """Assemble one campaign document from a finished profile.

    ``stages`` is the campaign's ordered stage list: mappings with
    ``name`` (short stage id), ``span`` (the telemetry span path the
    stage ran under), and ``wall_s``.  Per-stage sample counts are
    derived here by matching each sample's captured span path against
    the stage span prefix.
    """
    stage_records: List[Dict[str, object]] = []
    for stage in stages:
        span = str(stage.get("span", ""))
        samples = sum(
            count for (span_path, _stack), count in profile.counts.items()
            if span and (span_path == span
                         or span_path.startswith(span + "/")))
        wall = stage.get("wall_s", 0.0)
        stage_records.append({
            "name": str(stage.get("name", "")),
            "span": span,
            "wall_s": float(wall) if isinstance(wall, (int, float)) else 0.0,
            "samples": samples,
        })
    functions: List[Dict[str, object]] = []
    for stat in profile.aggregate()[:top]:
        functions.append({
            "key": stat.key,
            "self_samples": stat.self_samples,
            "cum_samples": stat.cum_samples,
            "self_s": stat.self_s,
            "cum_s": stat.cum_s,
            "spans": {path: count for path, count in
                      sorted(stat.spans.items()) if path},
        })
    return {
        "schema": SCHEMA,
        "label": label,
        "k": int(k),
        "hz": profile.hz,
        "effective_hz": profile.effective_hz,
        "samples": profile.samples,
        "duration_s": profile.duration_s,
        # Session metadata by contract: ``ts`` dates the campaign run
        # and is excluded from hotspot regression comparison, so wall
        # time here cannot skew replays.
        "ts": time.time(),  # flatlint: disable=FT007
        "environment": environment_fingerprint(root),
        "stages": stage_records,
        "functions": functions,
        "folded": profile.folded(),
    }


def validate_document(document: Mapping[str, object]) -> List[str]:
    """Schema-check a decoded hotspot document (empty = valid)."""
    problems: List[str] = []
    if document.get("schema") != SCHEMA:
        problems.append(
            f"'schema' must be {SCHEMA!r}, got {document.get('schema')!r}")
    samples = document.get("samples")
    if not isinstance(samples, int) or isinstance(samples, bool):
        problems.append("missing integer 'samples'")
        samples = 0
    elif samples < 0:
        problems.append(f"negative 'samples' {samples}")
    duration = document.get("duration_s")
    if (not isinstance(duration, (int, float)) or isinstance(duration, bool)
            or duration < 0):
        problems.append("missing non-negative 'duration_s'")
    env = document.get("environment")
    if not isinstance(env, dict):
        problems.append("missing 'environment' fingerprint object")
    else:
        for key in ("python", "cpu_count", "repro"):
            if key not in env:
                problems.append(f"environment missing {key!r}")
    stages = document.get("stages")
    if not isinstance(stages, list) or not stages:
        problems.append("missing non-empty 'stages' list")
    else:
        for stage in stages:
            if not isinstance(stage, dict) or not stage.get("name"):
                problems.append(f"malformed stage entry {stage!r}")
    functions = document.get("functions")
    if not isinstance(functions, list):
        problems.append("missing 'functions' list")
    else:
        if samples > 0 and not functions:
            problems.append("'functions' empty despite captured samples")
        previous = None
        for entry in functions:
            if not isinstance(entry, dict) or not entry.get("key"):
                problems.append(f"malformed function entry {entry!r}")
                continue
            self_samples = entry.get("self_samples")
            if (not isinstance(self_samples, int)
                    or isinstance(self_samples, bool) or self_samples < 0):
                problems.append(
                    f"function {entry.get('key')!r} missing non-negative "
                    "integer 'self_samples'")
                continue
            if previous is not None and self_samples > previous:
                problems.append(
                    "'functions' not sorted by self_samples descending")
                break
            previous = self_samples
    folded = document.get("folded")
    if not isinstance(folded, list):
        problems.append("missing 'folded' stack list")
    else:
        for line in folded:
            if not isinstance(line, str) or not _FOLDED_LINE.match(line):
                problems.append(f"malformed folded line {line!r}")
                break
    return problems


def write_document(path: Path, document: HotspotDocument) -> None:
    """Write one artifact (NaN-scrubbed, sorted keys, trailing newline)."""
    write_json(path, document, validate_document, "hotspot")


def load_document(path: Path) -> HotspotDocument:
    """Read and schema-check one ``HOTSPOTS_*.json``."""
    return read_json(path, validate_document, "hotspot")


def render_document(document: Mapping[str, Any], top: int = 20) -> str:
    """Human-readable campaign summary: stages then top functions."""
    lines = [
        f"hotspot campaign {document.get('label')!r}  "
        f"k={document.get('k')}  samples={document.get('samples')}  "
        f"duration={float(document.get('duration_s', 0.0)):.2f}s  "
        f"rate={float(document.get('effective_hz', 0.0)):.0f}Hz",
        "",
        f"{'stage':<12} {'wall_s':>8} {'samples':>8}",
    ]
    for stage in document.get("stages", []):
        lines.append(f"{stage.get('name', '?'):<12} "
                     f"{float(stage.get('wall_s', 0.0)):8.2f} "
                     f"{int(stage.get('samples', 0)):8d}")
    lines.append("")
    lines.append(f"{'self_s':>8} {'cum_s':>8} {'samples':>8}  "
                 "function  [span]")
    for entry in document.get("functions", [])[:top]:
        spans = entry.get("spans") or {}
        span = ""
        if spans:
            span_path = max(sorted(spans), key=lambda path: spans[path])
            span = f"  [{span_path}]"
        lines.append(f"{float(entry.get('self_s', 0.0)):8.3f} "
                     f"{float(entry.get('cum_s', 0.0)):8.3f} "
                     f"{int(entry.get('self_samples', 0)):8d}  "
                     f"{entry.get('key')}{span}")
    return "\n".join(lines)
