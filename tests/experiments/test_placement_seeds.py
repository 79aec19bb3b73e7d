"""Figure 7/8 workloads must not depend on the process's string-hash seed.

The placement name is part of every workload's seed.  The builtin
``hash()`` of a str changes from one process to the next with
``PYTHONHASHSEED``, so a seed derived from it drew different
weak-locality workloads in every run.  The workloads are built in two
interpreters with different hash seeds and compared.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints one digest line per (figure, k, placement) workload, built the
#: way run_fig7 / run_fig8 build them.
SCRIPT = """
import hashlib
from repro.experiments.common import placement_rng
from repro.experiments import fig7_broadcast as fig7, fig8_alltoall as fig8
from repro.topology.clos import fat_tree_params

for k in (4, 6):
    params = fat_tree_params(k)
    for name, fig, build in (("fig7", fig7, fig7.broadcast_workload),
                             ("fig8", fig8, fig8.all_to_all_workload)):
        for place in fig.PLACEMENTS:
            workload = build(params, place, placement_rng(0, place))
            digest = hashlib.sha256(repr(workload).encode()).hexdigest()
            print(name, k, place, len(workload), digest)
"""


def workloads_under(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_workloads_do_not_depend_on_hash_seed():
    first = workloads_under(1)
    assert "fig8 6 weak locality" in first
    assert "fig7 6 no locality" in first
    assert first == workloads_under(2)
