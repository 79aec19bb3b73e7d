"""Chaos sweep: conversion resilience under injected faults (paper §5).

For each converter technology, the clean conversion (Clos -> global
random graph) is executed once as the baseline, then re-executed under
increasing fault pressure: each sweep point injects command faults
(converter timeouts/NACKs) at the given rate plus plant faults (random
dead legs) at half of it, all drawn from the sweep seed, so the whole
table is reproducible bit-for-bit.

Reported per (technology, fault rate):

* **success probability** — fraction of trials where every batch
  committed (no rollback);
* **added conversion time** — mean extra wall-clock versus the clean
  execution (retry timeouts + backoffs), over successful trials;
* **rolled-back batch fraction** — mean over trials;
* **path-length inflation** — mean post-heal average server path
  length versus the clean conversion, over trials whose degraded
  network stayed connected (disconnected trials are counted
  separately, not averaged in).

Plant faults are drawn over ``max(2 × clean conversion time, 1 ms)``,
so the window, and with it which faults land before or after the last
batch, follows the clean schedule.  A change to the clean schedule's
batch count therefore moves the path-length and unrecoverable-server
columns with no change to heal or retry code: when the packet-chip
clean conversion at k = 4 went from 8 to 4 batches, one rate-0.1
trial's dead leg moved from after that conversion's finish to before
it, and the point's path-length ratio went from 1.0000 to 0.9965.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.chaos import ChaosSchedule
from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.reconfigure import (
    MACH_ZEHNDER,
    MEMS_OPTICAL,
    PACKET_CHIP,
    RetryPolicy,
    Technology,
)
from repro.errors import ConfigurationError, TopologyError
from repro.experiments.common import render_table
from repro.topology.stats import average_server_path_length

DEFAULT_RATES: Sequence[float] = (0.0, 0.05, 0.1, 0.2)
DEFAULT_TECHNOLOGIES: Sequence[Technology] = (
    MEMS_OPTICAL, MACH_ZEHNDER, PACKET_CHIP,
)


@dataclass
class ChaosCell:
    """One sweep point: a technology under one fault rate."""

    technology: str
    rate: float
    trials: int
    successes: int = 0
    added_time: float = 0.0
    rolled_back: float = 0.0
    retries: int = 0
    inflation: float = 0.0
    inflation_trials: int = 0
    unrecoverable: int = 0
    disconnected: int = 0

    @property
    def success_probability(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    @property
    def mean_added_time(self) -> float:
        """Mean extra conversion time, over *successful* trials only
        (a rolled-back run aborts early and would skew negative)."""
        return self.added_time / self.successes if self.successes else 0.0

    @property
    def rolled_back_fraction(self) -> float:
        return self.rolled_back / self.trials if self.trials else 0.0

    @property
    def mean_retries(self) -> float:
        return self.retries / self.trials if self.trials else 0.0

    @property
    def path_inflation(self) -> float:
        """Mean APL ratio vs clean, over connected degraded trials."""
        if not self.inflation_trials:
            return 1.0
        return self.inflation / self.inflation_trials


@dataclass
class ChaosSweepResult:
    """The full fault-rate x technology sweep, rendered as a table."""

    k: int
    seed: int
    trials: int
    cells: List[ChaosCell] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def cell(self, technology: str, rate: float) -> ChaosCell:
        for c in self.cells:
            # Exact match is correct: rate is a configured sweep
            # parameter stored verbatim, never a computed float.
            if c.technology == technology and c.rate == rate:  # flatlint: disable=FT003
                return c
        raise KeyError(f"no cell for {technology!r} at rate {rate}")

    def table(self) -> str:
        headers = ["technology", "rate", "success", "added_ms",
                   "rolled_back", "retries", "apl_x", "unrecov", "disc"]
        rows = [[
            c.technology,
            f"{c.rate:.3f}",
            f"{c.success_probability:.2f}",
            f"{c.mean_added_time * 1e3:.3f}",
            f"{c.rolled_back_fraction:.3f}",
            f"{c.mean_retries:.1f}",
            f"{c.path_inflation:.4f}",
            str(c.unrecoverable),
            str(c.disconnected),
        ] for c in self.cells]
        return render_table(headers, rows, self.notes)


def _trial_seed(seed: int, technology: Technology, rate: float,
                trial: int) -> int:
    """A stable per-trial seed, independent of sweep ordering."""
    key = f"{technology.name}:{rate:.6f}:{trial}"
    return seed * 1_000_003 + zlib.crc32(key.encode())


def run_chaos_sweep(
    k: int = 4,
    rates: Sequence[float] = DEFAULT_RATES,
    technologies: Sequence[Technology] = DEFAULT_TECHNOLOGIES,
    trials: int = 3,
    seed: int = 0,
    max_batch: int = 16,
    policy: Optional[RetryPolicy] = None,
) -> ChaosSweepResult:
    """Sweep command/plant fault rates over converter technologies."""
    if trials < 1:
        raise ConfigurationError("need at least one trial per sweep point")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"fault rate {rate} out of [0, 1]")
    policy = policy or RetryPolicy()
    result = ChaosSweepResult(k=k, seed=seed, trials=trials)

    with obs.span("experiments.chaos_sweep", k=k, trials=trials):
        for tech in technologies:
            clean = Controller(
                FlatTree(FlatTreeDesign.for_fat_tree(k))
            ).execute_mode(
                Mode.GLOBAL_RANDOM, technology=tech, max_batch=max_batch,
            )
            clean_time = clean.total_time
            clean_apl = average_server_path_length(clean.network)
            duration = max(2.0 * clean_time, 1e-3)

            for rate in rates:
                cell = ChaosCell(technology=tech.name, rate=rate,
                                 trials=trials)
                result.cells.append(cell)
                for trial in range(trials):
                    controller = Controller(
                        FlatTree(FlatTreeDesign.for_fat_tree(k))
                    )
                    chaos = ChaosSchedule.random(
                        controller.flattree,
                        seed=_trial_seed(seed, tech, rate, trial),
                        duration=duration,
                        leg_fault_rate=rate / 2.0,
                        command_fault_rate=rate,
                    )
                    report = controller.execute_mode(
                        Mode.GLOBAL_RANDOM,
                        technology=tech,
                        chaos=chaos,
                        policy=policy,
                        max_batch=max_batch,
                    )
                    if report.success:
                        cell.successes += 1
                        cell.added_time += report.total_time - clean_time
                    cell.rolled_back += report.rolled_back_fraction
                    cell.retries += report.retries
                    if report.heal is not None:
                        cell.unrecoverable += len(
                            report.heal.unrecoverable
                        )
                    if not report.connected:
                        cell.disconnected += 1
                        continue
                    try:
                        apl = average_server_path_length(report.network)
                    except TopologyError:
                        cell.disconnected += 1
                        continue
                    cell.inflation += apl / clean_apl
                    cell.inflation_trials += 1

    result.notes.append(
        "plant faults at rate/2 (random legs), command faults at rate; "
        "apl_x averages only connected degraded trials"
    )
    obs.incr("experiments.chaos_sweeps")
    return result
