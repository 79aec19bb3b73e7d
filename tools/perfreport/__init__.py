"""perfreport — command-line front end of the span profiler.

``python -m tools.perfreport`` reads telemetry JSONL traces; the
analysis lives in the library, one module per question:

* ``profile`` / ``flamegraph`` — the span profiler
  (:mod:`repro.obs.perf`): per-name self / cumulative time, the
  critical path, folded stacks;
* ``diff BASE.jsonl NEW.jsonl`` — which span moved between two traces
  (:mod:`repro.obs.diffprof`), with a 25% tolerance, a 5 ms floor,
  per-path attribution and a differential flamegraph.

Exit codes mirror ``tools.flatlint``: 0 clean, 1 a path grew beyond
tolerance, 2 usage errors (unreadable file, no span events).  The
benchmark of record is ``perf/run.py``; see ``docs/performance.md``.
"""

__version__ = "1.0.0"
