#!/usr/bin/env python3
"""Python-heap memory of one benchmark workload's runs, under tracemalloc.

    python3 scripts/held_memory.py --workload W [--seed S]

Runs the runs of ``perfbench/workloads.py``'s workload W at bench seed S in
this process, from parsing its FCIDUMP fixture to the last run, with
tracemalloc on.  Prints one JSON line: ``peak_mb``, the traced peak, and
``held_mb``, what stays allocated once the runs' traces are dropped (the
problem and every cache the runs filled), both in MiB.  tracemalloc counts
numpy's array buffers, but not memory that the allocator keeps back, so
these numbers move with the program's own allocations only, unlike
``peak_rss_mb``.  The script needs no FCI solve and no trace files.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from qjacobi import RunConfig, build_hamiltonian, parse_fcidump, run_quantum_jacobi  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIB = float(1 << 20)


def measure(workload: str, bench_seed: int) -> dict:
    wl = WORKLOADS[workload]
    floor = {} if wl.energy_floor is None else {"energy_floor": wl.energy_floor}
    tracemalloc.start()
    problem = build_hamiltonian(parse_fcidump(wl.fixture_path.read_text(encoding="ascii")))
    traces = [run_quantum_jacobi(problem, RunConfig(
        method=wl.method, epsilon=wl.epsilon, kappa=wl.kappa, max_cycles=wl.max_cycles,
        shots_per_term=wl.shots, rng_seed=seed, merge_threshold=wl.merge_threshold, **floor))
        for seed in wl.physics_seeds(bench_seed)]
    cycles = [t.cycles for t in traces]
    del traces
    gc.collect()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"workload": workload, "seed": bench_seed, "cycles": cycles,
            "peak_mb": round(peak / MIB, 3), "held_mb": round(held / MIB, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
