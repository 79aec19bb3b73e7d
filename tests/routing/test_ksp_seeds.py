"""The controller's KSP route lists must not depend on the string-hash seed.

The kernel numbers switches and orders their neighbors as the fabric
does, and the fabric is built in insertion order; if any of that
followed set or frozenset iteration, the paths, their order, and every
flow's hashed pick among them would change from one interpreter to the
next with ``PYTHONHASHSEED``.  The route lists of a k=12 global-random
fabric and a k=16 hybrid layout are printed in two interpreters with
different hash seeds and compared byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints every route of 150 seeded server pairs on both fabrics.
SCRIPT = """
import random
from repro.core.conversion import Mode
from repro.core.controller import Controller
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout, uniform_layout

for k, mode in ((12, Mode.GLOBAL_RANDOM), (16, None)):
    controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(k)))
    params = controller.flattree.params
    controller.apply_layout(
        uniform_layout(params, mode) if mode
        else proportional_layout(params, 0.5))
    rng = random.Random(k)
    for _ in range(150):
        src, dst = rng.sample(range(params.num_servers), 2)
        print(k, src, dst, [path.nodes for path in controller.routes(src, dst)])
"""


def routes_under(hash_seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_route_lists_do_not_depend_on_hash_seed():
    first = routes_under(1)
    assert first.count(b"\n") == 300
    assert first == routes_under(2)
