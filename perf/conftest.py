"""Make the plant (``src/``) and the benchmark modules importable."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
for path in (PERF, PERF.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
