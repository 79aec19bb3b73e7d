"""Durable perf sessions: the ``BENCH_<seq>.json`` trajectory.

``benchmarks/METRICS.json`` is overwritten on every bench run and
pytest-benchmark's tables scroll away with the terminal, so the repo
had no way to say "this PR made the KSP solver 30% slower".  This
module defines the durable record: one repo-root ``BENCH_<seq>.json``
per bench session, carrying

* an **environment fingerprint** (python / networkx / numpy / scipy
  versions, CPU count, platform, git commit + dirty flag) so numbers
  are only ever compared like-for-like;
* one entry per benchmark with its **wall time** (pytest-benchmark's
  per-round minimum — the low-noise statistic — plus mean / stddev /
  rounds) merged with the **registry counters** the bench harness
  snapshots into ``benchmarks/METRICS.json`` (solver iterations,
  repair loops, cache hits);
* a monotonically growing sequence number, so ``BENCH_1.json``,
  ``BENCH_2.json``, ... form the repository's perf trajectory.

It is also the one session-file layer: sequence discovery and the
next free slot, the seq parser, environment drift between two
fingerprints, validate-then-write / read-then-validate, and the noise
thresholds every perf judge shares.

Produced by ``flattree bench`` (see :mod:`repro.cli`), consumed by the
pairwise gate ``python -m tools.perfreport diff BASE NEW``
(:mod:`repro.obs.diffprof`), the trajectory gate ``python -m
tools.perfreport trend`` (:mod:`repro.obs.trend`), and ``make
bench-compare`` / ``make bench-smoke``.  The schema is documented in
``docs/performance.md``.
"""

from __future__ import annotations

import json
import os
import platform
import posixpath
import re
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ReproError
from repro.obs.stats import scrub_nonfinite

#: Version of the BENCH_*.json layout; bump on breaking change.
BENCH_SCHEMA_VERSION = 1

#: Relative change every perf judge treats as noise: ``perfreport
#: diff`` calls a bench grown only past ``1 + DEFAULT_TOLERANCE``, and
#: ``perfreport trend`` never draws a band narrower than this share of
#: the median.
DEFAULT_TOLERANCE = 0.25

#: Seconds: values under this on both sides are timer jitter, never
#: judged.
DEFAULT_MIN_RUNTIME_S = 0.005

#: Numbered repo-root session files: ``BENCH_<seq>.json``.  Free-form
#: tags such as ``BENCH_smoke.json`` are throwaway runs that neither
#: join the trajectory nor claim a sequence slot.
_NUMBERED = re.compile(r"^BENCH_(\d+)\.json$")

#: Fingerprint keys whose drift makes two sessions incomparable.
_DRIFT_KEYS = ("python", "implementation", "machine", "cpu_count",
               "networkx", "numpy", "scipy")

#: One bench entry: wall stats plus the registry snapshot.
BenchEntry = Dict[str, Any]

#: A full decoded session document.
BenchSession = Dict[str, Any]


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(root), capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def environment_fingerprint(root: Optional[Path] = None) -> Dict[str, object]:
    """The comparability context a bench session was recorded under."""
    fingerprint: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
    for dep in ("networkx", "numpy", "scipy"):
        try:
            module = __import__(dep)
            fingerprint[dep] = str(module.__version__)
        except ImportError:
            fingerprint[dep] = None
    from repro import __version__  # function-level: avoids a facade cycle

    fingerprint["repro"] = __version__
    root = root if root is not None else repo_root()
    commit = _git(root, "rev-parse", "HEAD")
    fingerprint["git_commit"] = commit
    status = _git(root, "status", "--porcelain")
    fingerprint["git_dirty"] = bool(status) if status is not None else None
    return fingerprint


def repo_root() -> Path:
    """The checkout root (two levels above the ``repro`` package)."""
    return Path(__file__).resolve().parents[3]


def session_seq(path: Path) -> Optional[int]:
    """The ``<seq>`` of a numbered session file, ``None`` for a tag."""
    match = _NUMBERED.match(path.name)
    return int(match.group(1)) if match is not None else None


def session_paths(root: Path) -> List[Path]:
    """Existing numbered ``BENCH_<seq>.json`` files, oldest first."""
    found = [(seq, path) for path in root.glob("BENCH_*.json")
             if (seq := session_seq(path)) is not None]
    return [path for _, path in sorted(found)]


def next_session_path(root: Path) -> Path:
    """The next free ``BENCH_<seq>.json`` slot under ``root``."""
    taken = [session_seq(path) or 0 for path in session_paths(root)]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def environment_drift(base: Mapping[str, object],
                      new: Mapping[str, object]) -> List[str]:
    """One ``"<key> changed <old> -> <new>"`` note per drifted key.

    Compares the ``environment`` fingerprints of two decoded session
    documents; a slower python or fewer CPUs explains a wall-time
    step better than any code diff.  Empty when either side has no
    fingerprint.
    """
    base_env = base.get("environment")
    new_env = new.get("environment")
    if not isinstance(base_env, dict) or not isinstance(new_env, dict):
        return []
    return [f"{key} changed {base_env.get(key)!r} -> {new_env.get(key)!r}"
            for key in _DRIFT_KEYS if base_env.get(key) != new_env.get(key)]


def normalize_nodeid(nodeid: str) -> str:
    """Canonical bench key: ``test_bench_x.py::test_y``.

    pytest-benchmark's ``fullname`` and the METRICS.json node ids
    disagree on whether the file part carries the ``benchmarks/``
    directory prefix depending on the invocation's rootdir; dropping
    the directory makes the two join keys identical.
    """
    file_part, sep, rest = nodeid.partition("::")
    return posixpath.basename(file_part) + sep + rest


def build_session(
    bench_stats: Mapping[str, Mapping[str, object]],
    metrics: Optional[Mapping[str, Mapping[str, object]]] = None,
    label: str = "bench",
    root: Optional[Path] = None,
) -> BenchSession:
    """Merge per-bench wall stats with registry snapshots.

    ``bench_stats`` maps node ids to ``{"wall_s", "mean_s", "stddev_s",
    "rounds"}`` (see :func:`parse_pytest_benchmark_json`); ``metrics``
    is the decoded ``benchmarks/METRICS.json`` (may be ``None`` when
    the session ran with ``REPRO_TELEMETRY=0``).
    """
    metric_map = {normalize_nodeid(k): v for k, v in (metrics or {}).items()}
    benchmarks: Dict[str, BenchEntry] = {}
    for nodeid, stats in bench_stats.items():
        key = normalize_nodeid(nodeid)
        entry: BenchEntry = dict(stats)
        entry["metrics"] = dict(metric_map.get(key, {}))
        benchmarks[key] = entry
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "label": label,
        # Session metadata by contract: ``ts`` records when the bench
        # ran and no judge reads it (diffprof and trend compare wall
        # times only), so wall time here cannot skew replays.
        "ts": time.time(),  # flatlint: disable=FT007
        "environment": environment_fingerprint(root),
        "benchmarks": benchmarks,
    }


def parse_pytest_benchmark_json(
        raw: Mapping[str, object]) -> Dict[str, Dict[str, object]]:
    """Extract per-bench wall stats from ``--benchmark-json`` output."""
    stats: Dict[str, Dict[str, object]] = {}
    benches = raw.get("benchmarks")
    if not isinstance(benches, list):
        raise ReproError("pytest-benchmark JSON has no 'benchmarks' list")
    for bench in benches:
        if not isinstance(bench, dict):
            continue
        fullname = bench.get("fullname")
        bench_stats = bench.get("stats")
        if not isinstance(fullname, str) or not isinstance(bench_stats, dict):
            continue
        stats[fullname] = {
            "wall_s": bench_stats.get("min"),
            "mean_s": bench_stats.get("mean"),
            "stddev_s": bench_stats.get("stddev"),
            "rounds": bench_stats.get("rounds"),
        }
    return stats


def validate_session(session: Mapping[str, object]) -> List[str]:
    """Schema-check a decoded session document (empty = valid)."""
    problems: List[str] = []
    if session.get("schema") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"'schema' must be {BENCH_SCHEMA_VERSION}, "
            f"got {session.get('schema')!r}")
    env = session.get("environment")
    if not isinstance(env, dict):
        problems.append("missing 'environment' fingerprint object")
    else:
        for key in ("python", "cpu_count", "networkx", "repro"):
            if key not in env:
                problems.append(f"environment missing {key!r}")
    benchmarks = session.get("benchmarks")
    if not isinstance(benchmarks, dict):
        problems.append("missing 'benchmarks' object")
        return problems
    for key, entry in benchmarks.items():
        if not isinstance(entry, dict):
            problems.append(f"bench {key!r} is not an object")
            continue
        wall = entry.get("wall_s")
        if (not isinstance(wall, (int, float)) or isinstance(wall, bool)
                or wall < 0):
            problems.append(f"bench {key!r} missing non-negative 'wall_s'")
        if not isinstance(entry.get("metrics"), dict):
            problems.append(f"bench {key!r} missing 'metrics' object")
    return problems


def write_session(path: Path, session: BenchSession) -> None:
    """Scrub NaN, schema-check, then write one ``BENCH_*.json``."""
    scrubbed = scrub_nonfinite(session)
    problems = validate_session(scrubbed)
    if problems:
        raise ReproError(f"refusing to write invalid bench file {path}: "
                         + "; ".join(problems))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scrubbed, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_session(path: Path) -> BenchSession:
    """Read and schema-check one ``BENCH_*.json``; ReproError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ReproError(f"cannot read bench file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ReproError(f"{path} is not a JSON object")
    problems = validate_session(document)
    if problems:
        raise ReproError(f"{path} fails the bench schema: "
                         + "; ".join(problems))
    return document
