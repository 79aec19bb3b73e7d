"""The controller's KSP route lists must not depend on the string-hash seed.

The kernel numbers switches and orders their neighbors as the fabric
does, and the fabric is built in insertion order; if any of that
followed set or frozenset iteration, the paths, their order, and every
flow's hashed pick among them would change from one interpreter to the
next with ``PYTHONHASHSEED``.  The route lists of a k=12 global-random
fabric, and of a k=16 plant after each step of a chain of proportional
and three-zone hybrid conversions, are printed in two interpreters with
different hash seeds and compared byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints every route of seeded server pairs on a k=12 fabric and after
#: each conversion of a k=16 chain.
SCRIPT = """
import random
from repro.core.conversion import Mode
from repro.core.controller import Controller
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.zones import (Zone, ZoneLayout, proportional_layout,
                              uniform_layout)


def show(controller, tag, pairs):
    rng = random.Random(tag)
    for _ in range(pairs):
        src, dst = rng.sample(range(controller.flattree.params.num_servers), 2)
        print(tag, src, dst,
              [path.nodes for path in controller.routes(src, dst)])


controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(12)))
controller.apply_layout(
    uniform_layout(controller.flattree.params, Mode.GLOBAL_RANDOM))
show(controller, "k12", 150)
controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(16)))
params = controller.flattree.params
third = params.pods // 3
chain = [
    proportional_layout(params, 0.5),
    proportional_layout(params, 0.25),
    ZoneLayout(params, (
        Zone("clos", Mode.CLOS, tuple(range(third))),
        Zone("local", Mode.LOCAL_RANDOM, tuple(range(third, 2 * third))),
        Zone("global", Mode.GLOBAL_RANDOM,
             tuple(range(2 * third, params.pods))))),
    proportional_layout(params, 0.75),
    uniform_layout(params, Mode.GLOBAL_RANDOM),
]
for step, layout in enumerate(chain):
    controller.apply_layout(layout)
    show(controller, f"k16 step {step}", 150 if step == 0 else 60)
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
    assert first.count(b"\n") == 150 + 150 + 4 * 60
    assert first == routes_under(2)
