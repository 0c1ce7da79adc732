"""Workload definitions and the result gate; shared by run.py and child.py.

Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"  # edited by hand

NORMAL_TERMINATIONS = frozenset(
    {"max_cycles", "energy_floor", "residual_floor", "selection_space_empty"})
ENERGY_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    method: str
    epsilon: float
    kappa: float | None
    max_cycles: int
    shots: int | None
    merge_threshold: float | None
    default_seed: int
    runs: int  # runs per process; more than one goes through cli.batch_sweep
    terminations: frozenset
    # Run fields that must equal expected.json at bench seed 0, and the trace
    # record whose energy and term count are gated (None: the last one).
    gated: tuple = ("cycles", "termination", "k_c", "term_count")
    gate_cycle: int | None = None
    energy_floor: float | None = None  # None: the program's default

    @property
    def fixture_path(self) -> Path:
        return ROOT / "tests" / "fixtures" / self.fixture

    def physics_seeds(self, bench_seed: int) -> list[int]:
        """RNG seeds of the runs; bench seed 0 is the workload as recorded."""
        first = self.default_seed + bench_seed * self.runs
        return list(range(first, first + self.runs))


WORKLOADS = {w.name: w for w in (
    Workload("h6-cfqj", "h6_linear_1.5.fcidump", "cfqj", 1e-3, None, 12,
             None, None, default_seed=3, runs=1,
             terminations=frozenset({"max_cycles"})),
    # The energy-floor stop is off, so every run makes the same 70 cycles
    # (k_c is 45): stopping at the floor took 66-101 cycles by seed, and the
    # exact replay cost grows with the square of the circuit length.
    Workload("h4-cfqj-sweep", "h4_linear_1.5.fcidump", "cfqj", 1e-4, 1e-3, 70,
             None, None, default_seed=0, runs=3, terminations=NORMAL_TERMINATIONS,
             energy_floor=0.0),
    # Sampled runs are chaotic: a 1e-13 relative change in the integrals
    # changes a shot count at cycle 2, and k_c and every later record with it
    # (NOTES.md), so only cycle 1 is compared with the recorded run.
    Workload("h4-pqj-shots", "h4_linear_1.5.fcidump", "pqj", 1e-4, None, 300,
             1000, 1e-2, default_seed=7, runs=2,
             terminations=frozenset({"max_cycles"}),
             gated=("cycles", "termination", "term_count"), gate_cycle=1),
)}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)


def trace_well_formed(lines: list[dict], cycles: int) -> bool:
    """One record per cycle plus the initial one, k counting up from 0."""
    if len(lines) != cycles + 1:
        return False
    for k, rec in enumerate(lines):
        if rec.get("k") != k or "schema" not in rec:
            return False
        energy = rec.get("energy")
        if not isinstance(energy, float) or not math.isfinite(energy):
            return False
    return True


def gate(workload: Workload, bench_seed: int, run: dict, expected: dict | None) -> list[str]:
    """Reasons one run fails the result gate; empty when it passes.

    At bench seed 0 every gated field must equal the recorded value and the
    energy at the gate cycle must agree within ENERGY_TOL; at other seeds
    only the invariants are checked.
    """
    problems = []
    if run["termination"] not in workload.terminations:
        problems.append(f"termination {run['termination']!r} not allowed")
    if run["cycles"] > workload.max_cycles:
        problems.append(f"{run['cycles']} cycles exceed {workload.max_cycles}")
    if not run["well_formed"]:
        problems.append("trace is not well formed")
    if bench_seed == 0:
        if expected is None:
            return problems + ["no recorded result for this run"]
        for name in workload.gated:
            if run[name] != expected[name]:
                problems.append(f"{name} {run[name]!r} != recorded {expected[name]!r}")
        if not abs(run["energy"] - expected["energy"]) <= ENERGY_TOL:
            problems.append(f"energy {run['energy']!r} != recorded {expected['energy']!r}")
    return problems
