"""qjacobi benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload h6-cfqj --seed 0 --seconds 40 --trace 0

Every repeat is a fresh child process (perfbench/child.py) with BLAS and
OpenMP pinned to one thread, so process-global caches start cold as they do
for a CLI user.  The load is closed-loop: one client, each repeat starting
after the previous one ends.

--trace 0 repeats the workload until --seconds is used up (at least twice)
and reports medians over the repeats.
--trace 1 runs the workload untraced, traced, traced and untraced, and
reports per-layer metrics from the first traced child's spans.  Every run
passes through the result gate in workloads.py, and the JSONL traces of all
runs of one seed must be byte-identical.  The last stdout line is the JSON
result; the exit code is 1 when a run fails the gate and 2 when the checkout
holds no qjacobi sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import COUNTS, END, LAYER, NAME, PARENT, START
from workloads import ROOT, WORKLOADS, gate, load_expected

OUT_DIR = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPEATS = 2  # the byte-identical trace check needs two
MAX_REPEATS = 50
TIME_LIMIT_S = 170  # the whole invocation, children included
MIN_STAGE_COVERAGE = 0.95  # stage spans must account for this share of run_s

# Direct children of run_quantum_jacobi, by cycle stage.
STAGES = {
    "jacobi.classical_residual": "residual", "jacobi.ResidualVector.norm": "residual",
    "jacobi.select_deterministic": "select", "jacobi.select_stochastic": "select",
    "jacobi.generator_from_determinant": "select",
    "jacobi.measure_block": "measure", "jacobi.solve_givens": "angle",
    "jacobi.merge_step": "merge", "jacobi.transform_hamiltonian": "conjugate",
    "jacobi.estimate_cnot_count": "record", "jacobi.generator_label": "record",
    "jacobi.ResidualVector.magnitudes": "record", "trace.CycleRecord": "record",
    "jacobi.diagonal_element": "init", "jordan_wigner.jordan_wigner": "init",
}
LAYERS = ("fcidump", "hamiltonian", "jordan_wigner", "fermion", "cumulant", "pauli",
          "statevector", "jacobi", "fci", "trace")
_START = perf_counter()  # TIME_LIMIT_S counts from here


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(mode: str, workload: str, seed: int, tag: str) -> tuple[float, dict]:
    """Wall seconds and report of one child process."""
    prefix = OUT_DIR / f"{workload}-{tag}"
    t0 = perf_counter()
    timeout = max(1.0, TIME_LIMIT_S - (t0 - _START))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, workload, str(seed), str(prefix)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s") from exc
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def context(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "bench_seed": args.seed,
        "physics_seeds": WORKLOADS[args.workload].physics_seeds(args.seed),
        "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "loadavg": os.getloadavg(), "commit": commit, "src_lines": src_lines,
    }


def check_runs(wl, seed: int, reports: list[dict], expected: dict) -> tuple[int, int, bool]:
    """(attempted, failed, traces identical) over all reports of one seed."""
    attempted = failed = 0
    recorded = expected.get(wl.name, [])
    for report in reports:
        for i, run in enumerate(report["runs"]):
            attempted += 1
            problems = gate(wl, seed, run, recorded[i] if i < len(recorded) else None)
            if problems:
                failed += 1
                print(json.dumps({"gate_failure": {"seed": run.get("seed"),
                                                   "problems": problems}}))
    hashes = {tuple(r["sha256"] for r in report["runs"]) for report in reports}
    return attempted, failed, len(hashes) == 1


def energy_error(reports: list[dict]) -> float:
    return max(abs(r["final_energy"] - r["fci_energy"]) for rep in reports for r in rep["runs"])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seed: int, seconds: int) -> tuple[list[dict], dict]:
    start = perf_counter()
    walls, reports = [], []
    while len(reports) < MAX_REPEATS:
        wall, report = run_child("run", wl.name, seed, f"r{len(reports)}")
        walls.append(wall)
        reports.append(report)
        print(json.dumps({"repeat": len(reports), "wall_s": wall,
                          "setup_s": report["setup_s"], "run_s": sum(report["run_s"]),
                          "sha256": [r["sha256"] for r in report["runs"]]}))
        now = perf_counter()
        if len(reports) >= MIN_REPEATS and now - start + wall > seconds:
            break
    return reports, {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(r["setup_s"] for r in reports), "s"),
        "run_s": metric(statistics.median(sum(r["run_s"]) for r in reports), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def per_layer(wl, seed: int) -> tuple[list[dict], dict]:
    # untraced, traced, traced, untraced: a linear drift in host speed cancels
    # out of the overhead; the layer split comes from the first traced child
    plain = [run_child("run", wl.name, seed, "untraced0")[1]]
    traced = [run_child("traced", wl.name, seed, f"traced{i}")[1] for i in range(2)]
    plain.append(run_child("run", wl.name, seed, "untraced1")[1])
    overhead = (sum(sum(r["run_s"]) for r in traced)
                / sum(sum(r["run_s"]) for r in plain) - 1.0)
    with open(OUT_DIR / f"{wl.name}-traced0-spans.json", encoding="ascii") as fh:
        spans = json.load(fh)
    first = traced[0]

    total, calls, counts = {}, {}, {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stage = dict.fromkeys(STAGES.values(), 0.0)
    runs = [i for i, s in enumerate(spans) if s[NAME] == "jacobi.run_quantum_jacobi"]
    run_ids = set(runs)
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        for key, n in (span[COUNTS] or {}).items():
            counts[name, key] = counts.get((name, key), 0) + n
        self_s[span[LAYER]] = self_s.get(span[LAYER], 0.0) + dur - child_time[i]
        if span[PARENT] in run_ids and name in STAGES:
            stage[STAGES[name]] += dur

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(name, key):
        return counts.get((name, key), 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    run_times = [spans[i][END] - spans[i][START] for i in runs]
    run_s = sum(run_times)
    cycles = sum(r["cycles"] for r in first["runs"])
    expectations = calls.get("statevector.StatevectorBackend.expectation", 0)
    conj_in = c("fermion.bch_transform", "in")
    m = {
        "fcidump.parse_s": metric(t("fcidump.parse_fcidump"), "s"),
        "hamiltonian.build_s": metric(t("hamiltonian.build_hamiltonian"), "s"),
        "hamiltonian.terms": metric(first["hamiltonian_terms"], "count"),
        "jordan_wigner.map_s": metric(
            t("jordan_wigner.jordan_wigner", "jordan_wigner.jw_generator"), "s"),
        "fermion.conjugate_s": metric(t("fermion.bch_transform"), "s"),
        "fermion.terms_in": metric(conj_in, "count"),
        "fermion.terms_out": metric(c("fermion.bch_transform", "out"), "count"),
        "fermion.us_per_term": metric(share(t("fermion.bch_transform") * 1e6, conj_in), "us"),
    }
    cache = first.get("term_product")
    if cache is None:
        print(json.dumps({"absent": "fermion.term_product cache"}))
    else:
        lookups = cache["hits"] + cache["misses"]
        m["fermion.term_product_hit_share"] = metric(share(cache["hits"], lookups), "ratio")
        m["fermion.term_product_misses"] = metric(cache["misses"], "count")
    stage_s = sum(stage.values())
    m.update({
        "cumulant.decompose_s": metric(t("cumulant.cumulant_decompose"), "s"),
        "cumulant.terms_in": metric(c("cumulant.cumulant_decompose", "in"), "count"),
        "cumulant.terms_out": metric(c("cumulant.cumulant_decompose", "out"), "count"),
        "pauli.conjugate_s": metric(t("pauli.bch_transform_pauli"), "s"),
        "pauli.terms_in": metric(c("pauli.bch_transform_pauli", "in"), "count"),
        "pauli.terms_out": metric(c("pauli.bch_transform_pauli", "out"), "count"),
        "statevector.measure_s": metric(t("jacobi.measure_block"), "s"),
        "statevector.expectations": metric(expectations, "count"),
        "statevector.expectation_ms": metric(
            share(t("statevector.StatevectorBackend.expectation") * 1e3, expectations), "ms"),
        "statevector.circuit_s": metric(t("statevector.apply_circuit"), "s"),
        "statevector.steps_applied": metric(c("statevector.apply_circuit", "steps"), "count"),
        "statevector.estimate_s": metric(
            t("statevector.expectation_exact", "statevector.expectation_sampled"), "s"),
        "statevector.shots": metric(sum(r["shots"] for r in first["runs"]), "count"),
        "jacobi.cycles": metric(cycles, "count"),
        "jacobi.cycle_ms": metric(share(run_s * 1e3, cycles), "ms"),
        "jacobi.residual_s": metric(stage["residual"], "s"),
        "jacobi.residual_terms": metric(c("jacobi.classical_residual", "in"), "count"),
        "jacobi.select_s": metric(stage["select"], "s"),
        "jacobi.stochastic_share": metric(
            share(calls.get("jacobi.select_stochastic", 0), cycles), "ratio"),
        "jacobi.angle_s": metric(stage["angle"], "s"),
        "jacobi.merge_s": metric(stage["merge"], "s"),
        "jacobi.merged_share": metric(share(c("jacobi.merge_step", "merged"), cycles), "ratio"),
        "jacobi.truncate_s": metric(t("jacobi.truncate"), "s"),
        "jacobi.truncate_kept_share": metric(
            share(c("jacobi.truncate", "out"), c("jacobi.truncate", "in")), "ratio"),
        "jacobi.record_s": metric(stage["record"], "s"),
        "jacobi.other_s": metric(run_s - stage_s, "s"),
        "jacobi.stage_coverage": metric(share(stage_s, run_s), "ratio"),
        "jacobi.run_cold_s": metric(run_times[0], "s"),
        # a single-run workload has no warm run: its only run stands for both
        "jacobi.run_warm_s": metric(statistics.median(run_times[1:] or run_times), "s"),
        "fci.ground_state_s": metric(t("fci.fci_ground_state"), "s"),
        "fci.dim": metric(first["fci_dim"], "count"),
        "trace.write_s": metric(t("trace.RunTrace.write_jsonl", "trace.write_summary_csv"), "s"),
        "trace.bytes": metric(sum(r["trace_bytes"] for r in first["runs"]), "bytes"),
        "bench.trace_overhead": metric(overhead, "ratio"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(self_s[layer], "s")
    print(json.dumps({"stage_s": stage, "run_s": run_s}))
    return plain + traced, m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "qjacobi" / "__init__.py").is_file() or not wl.fixture_path.is_file():
        print(f"no qjacobi sources or fixture {wl.fixture} under {ROOT}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        print(json.dumps({"context": context(args)}))
        if args.trace:
            reports, metrics = per_layer(wl, args.seed)
        else:
            reports, metrics = end_to_end(wl, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted, failed, identical = check_runs(wl, args.seed, reports, load_expected())
    if args.trace:
        metrics["energy_error_ha"] = metric(energy_error(reports), "Ha")
        metrics["fail_ratio"] = metric(failed / attempted, "ratio")
        metrics["bench.traces_identical"] = metric(int(identical), "flag")
    else:
        print(json.dumps({"energy_error_ha": energy_error(reports),
                          "fail_ratio": failed / attempted, "traces_identical": identical}))
    correct = failed == 0 and identical
    if args.trace and metrics["jacobi.stage_coverage"]["value"] < MIN_STAGE_COVERAGE:
        print(json.dumps({"stage_coverage_below": MIN_STAGE_COVERAGE}))
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
