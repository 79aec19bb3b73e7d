"""The monitored FCT report must not depend on the string-hash seed.

The controller diffs two materializations cable by cable, keyed by
2-element frozensets.  Iterating a frozenset follows the hashes of its
switches, and those change from one process to the next with
``PYTHONHASHSEED``; a cable oriented that way listed different
``link_down``/``link_up`` links, and a different downtime ledger, in
every run.  The report is printed in two interpreters with different
hash seeds and compared byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The monitored FCT report across a live k=4 conversion.
COMMAND = ["-m", "repro.cli", "fct", "--ks", "4", "--flows", "24",
           "--monitor"]


def report_under(hash_seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *COMMAND], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_monitored_report_does_not_depend_on_hash_seed():
    first = report_under(1)
    assert b"downtime ledger" in first
    assert first == report_under(2)
