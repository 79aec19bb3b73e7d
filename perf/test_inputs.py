"""Workload inputs must not depend on the process's string-hash seed.

``hash()`` of a string changes from one process to the next, so any
input derived from it would differ between runs of the same seed.  The
inputs are generated in two interpreters with different
``PYTHONHASHSEED`` values and compared.
"""

import os
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
SEED = 3
#: Rounds of job kinds generated per workload.
ROUNDS = 2


def input_digests() -> dict:
    """A digest per workload of its inputs for the first jobs."""
    import workloads

    def edges(net):
        return [repr(edge) for edge in net.edge_list()]

    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SEED)
        jobs = [workload.inputs(job) for job in range(ROUNDS * cls.kinds)]
        parts = [repr(inputs) for inputs in jobs]
        if name == "fig8_lp":
            parts += [edges(workload.network(inputs)) for inputs in jobs]
        if name == "fptas_a2a":
            parts += [repr(workload.commodities), edges(workload.net)]
        out[name] = workloads.digest(parts)
    return out


def digests_under(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(PERF), str(PERF.parent / "src")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import test_inputs; print(test_inputs.input_digests())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_inputs_do_not_depend_on_hash_seed():
    first = digests_under(1)
    assert first.strip()
    assert first == digests_under(2)
