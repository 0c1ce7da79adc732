"""One workload process: set up, run, FCI reference, traces.

    python3 perfbench/child.py MODE WORKLOAD BENCH_SEED OUT_PREFIX

MODE is ``run`` or ``traced`` (run with a span around every layer's entry
points; spans go to OUT_PREFIX-spans.json).  The last stdout line is a JSON report.  The parent
sets PYTHONPATH to the checkout's src/ and pins BLAS threads to 1.
"""

from time import perf_counter

_T0 = perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import qjacobi  # noqa: E402
from qjacobi import cli  # noqa: E402

_IMPORT_S = perf_counter() - _T0

from tracer import END, NAME, START, Tracer, install_full  # noqa: E402
from workloads import ROOT, WORKLOADS, trace_well_formed  # noqa: E402


def _span_total(tracer: Tracer, name: str) -> float:
    return sum(s[END] - s[START] for s in tracer.spans if s[NAME] == name)


def _cli_argv(wl, seed: int, prefix: str) -> list[str]:
    def opt(value):
        return "none" if value is None else repr(value)

    return ["run", "--fcidump", str(wl.fixture_path), "--method", wl.method,
            "--epsilon", repr(wl.epsilon), "--kappa", opt(wl.kappa),
            "--max-cycles", str(wl.max_cycles), "--shots", opt(wl.shots),
            "--seed", str(seed), "--merge-threshold", opt(wl.merge_threshold),
            "--trace", f"{prefix}-0.jsonl", "--summary", f"{prefix}.csv"]


def _run_record(wl, trace, path: str, fci_energy: float) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    lines = [json.loads(line) for line in data.decode("ascii").splitlines()]
    gated = trace.records[-1 if wl.gate_cycle is None else wl.gate_cycle]
    return {
        "seed": trace.seed, "cycles": trace.cycles, "termination": trace.termination,
        "k_c": trace.k_c, "term_count": gated.term_count, "energy": gated.energy,
        "final_energy": trace.final_energy, "fci_energy": fci_energy,
        "shots": trace.records[-1].shots_used, "sha256": hashlib.sha256(data).hexdigest(),
        "trace_bytes": len(data), "well_formed": trace_well_formed(lines, trace.cycles),
    }


def main(mode: str, workload: str, bench_seed: int, prefix: str) -> dict:
    wl = WORKLOADS[workload]
    if not qjacobi.__file__.startswith(str(ROOT / "src")):
        raise SystemExit(f"qjacobi imported from {qjacobi.__file__}, not this checkout")
    tracer = Tracer()
    problems, traces, fci = [], [], []
    tracer.wrap(cli, "parse_fcidump")
    tracer.wrap(cli, "build_hamiltonian", on_result=lambda a, r: problems.append(r))
    tracer.wrap(cli, "run_quantum_jacobi", on_result=lambda a, r: traces.append(r))
    tracer.wrap(cli, "fci_ground_state", on_result=lambda a, r: fci.append(r))
    if mode == "traced":
        install_full(tracer)
    seeds = wl.physics_seeds(bench_seed)

    if wl.runs == 1:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(_cli_argv(wl, seeds[0], prefix))
        if rc != 0:
            raise SystemExit(f"qjacobi run exited {rc}: {out.getvalue().strip()}")
    else:
        with open(wl.fixture_path, encoding="ascii") as fh:
            data = cli.parse_fcidump(fh)
        problem = cli.build_hamiltonian(data)
        energy = cli.fci_ground_state(problem, sz=data.ms2 / 2.0)[0]
        floor = {} if wl.energy_floor is None else {"energy_floor": wl.energy_floor}
        configs = [qjacobi.RunConfig(method=wl.method, epsilon=wl.epsilon, kappa=wl.kappa,
                                     max_cycles=wl.max_cycles, shots_per_term=wl.shots,
                                     rng_seed=seed, merge_threshold=wl.merge_threshold,
                                     **floor)
                   for seed in seeds]
        cli.batch_sweep(problem, configs, fci_energy=energy)
        for i, trace in enumerate(traces):
            trace.write_jsonl(f"{prefix}-{i}.jsonl")

    report = {
        "setup_s": _IMPORT_S + _span_total(tracer, "fcidump.parse_fcidump")
        + _span_total(tracer, "hamiltonian.build_hamiltonian"),
        "run_s": [s[END] - s[START] for s in tracer.spans
                  if s[NAME] == "jacobi.run_quantum_jacobi"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hamiltonian_terms": problems[0].hamiltonian.term_count(),
        "runs": [_run_record(wl, t, f"{prefix}-{i}.jsonl", fci[0][0])
                 for i, t in enumerate(traces)],
    }
    if mode == "traced":
        tracer.dump(f"{prefix}-spans.json")
        info = getattr(getattr(qjacobi.fermion, "term_product", None), "cache_info", None)
        report["term_product"] = info()._asdict() if info else None
        report["fci_dim"] = len(fci[0][1])
    return report


if __name__ == "__main__":
    mode, workload, seed, prefix = sys.argv[1:5]
    print(json.dumps(main(mode, workload, int(seed), prefix)))
