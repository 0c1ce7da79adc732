"""Command-line interface: run, fci, jw-dump, diag.

Errors exit nonzero with a single machine-parseable line on stderr:
``qjacobi-error: <tag>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .diagnostics import WeightDistribution, participation_ratio, shannon_entropy, topk_mass
from .fci import fci_ground_state
from .fcidump import FCIDumpError, parse_fcidump
from .hamiltonian import build_hamiltonian
from .jacobi import QJRunError, RunConfig, run_quantum_jacobi
from .jordan_wigner import jordan_wigner
from .pauli import pauli_label
from .trace import read_trace_jsonl, write_summary_csv

_METHOD_ALIASES = {
    "pqj": "pqj",
    "fqj": "fqj",
    "cfqj": "cfqj",
    "exact-fermion": "exact-bch-fermionic",
    "exact-pauli": "exact-bch-pauli",
}

_FCI_QUBIT_LIMIT = 16


class CliError(Exception):
    def __init__(self, tag: str, message: str):
        super().__init__(message)
        self.tag = tag


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("bad-flags", message)


def _optional_float(text: str):
    if text.lower() == "none":
        return None
    try:
        return float(text)
    except ValueError as exc:
        raise CliError("bad-flags", f"expected float or 'none', got {text!r}") from exc


def _optional_int(text: str):
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise CliError("bad-flags", f"expected int or 'none', got {text!r}") from exc


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = parse_fcidump(fh)
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc}") from exc
    except FCIDumpError as exc:
        raise CliError("fcidump", str(exc)) from exc
    return data, build_hamiltonian(data)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qjacobi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one quantum Jacobi run")
    run.add_argument("--fcidump", required=True)
    run.add_argument("--method", required=True, choices=sorted(_METHOD_ALIASES))
    run.add_argument("--epsilon", type=float, default=0.0)
    run.add_argument("--kappa", type=_optional_float, default=None)
    run.add_argument("--max-cycles", type=int, default=100)
    run.add_argument("--shots", type=_optional_int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--merge-threshold", type=_optional_float, default=None)
    run.add_argument("--trace", default=None, help="JSONL cycle records")
    run.add_argument("--summary", default=None, help="CSV summary row")
    run.add_argument("--skip-fci", action="store_true",
                     help="leave the FCI reference columns empty")

    fci = sub.add_parser("fci", help="exact diagonalization of the FCIDUMP Hamiltonian")
    fci.add_argument("--fcidump", required=True)
    fci.add_argument("--vector", default=None, help="write the ground vector here")

    jw = sub.add_parser("jw-dump", help="Jordan-Wigner Pauli terms of the Hamiltonian")
    jw.add_argument("--fcidump", required=True)

    diag = sub.add_parser("diag", help="residual statistics time series from a trace")
    diag.add_argument("--trace", required=True)
    diag.add_argument("--topk", type=int, default=100)
    diag.add_argument("--out", default=None, help="CSV output path (default stdout)")
    return parser


def _cmd_run(args) -> int:
    data, problem = _load_problem(args.fcidump)
    config = RunConfig(
        method=_METHOD_ALIASES[args.method],
        epsilon=args.epsilon,
        kappa=args.kappa,
        max_cycles=args.max_cycles,
        shots_per_term=args.shots,
        rng_seed=args.seed,
        merge_threshold=args.merge_threshold,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise CliError("bad-flags", str(exc)) from exc
    trace = run_quantum_jacobi(problem, config)
    fci_energy = None
    if not args.skip_fci and problem.n_qubits <= _FCI_QUBIT_LIMIT:
        fci_energy, _, _ = fci_ground_state(problem, sz=data.ms2 / 2.0)
    if args.trace:
        trace.write_jsonl(args.trace)
    if args.summary:
        write_summary_csv([trace.summary_row(fci_energy)], args.summary)
    row = trace.summary_row(fci_energy)
    print(f"final_energy={row['final_energy']:.12f}"
          f" cycles={row['cycles']} expectation_values={row['expectation_values']}"
          f" termination={row['termination']}")
    return 0


def _cmd_fci(args) -> int:
    data, problem = _load_problem(args.fcidump)
    energy, vector, basis = fci_ground_state(problem, sz=data.ms2 / 2.0)
    print(f"{energy:.12f}")
    if args.vector:
        with open(args.vector, "w", encoding="ascii") as fh:
            for det, amp in zip(basis.determinants, vector):
                fh.write(f"{det:0{problem.n_qubits}b} {amp.real:+.16e}\n")
    return 0


def _cmd_jw_dump(args) -> int:
    _, problem = _load_problem(args.fcidump)
    pauli = jordan_wigner(problem.hamiltonian)
    rows = sorted(pauli.terms.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    for key, coeff in rows:
        if abs(coeff.imag) > 1e-9:
            raise CliError("schema", "non-real Pauli coefficient in a molecular Hamiltonian")
        print(f"{coeff.real:+.12e} {pauli_label(key, problem.n_qubits)}")
    return 0


def _cmd_diag(args) -> int:
    if args.topk < 1:
        raise CliError("bad-flags", f"--topk must be >= 1, got {args.topk}")
    try:
        records = read_trace_jsonl(args.trace)
    except OSError as exc:
        raise CliError("io", f"cannot read {args.trace}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError("schema", f"bad trace file: {exc}") from exc
    out = open(args.out, "w", encoding="ascii", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["k", "support", "entropy", "participation_ratio",
                         f"top{args.topk}_mass", "residual_norm", "residual_source"])
        for rec in records:
            if not rec.residual_magnitudes:
                continue
            dist = WeightDistribution.from_amplitudes(rec.residual_magnitudes.values())
            writer.writerow([rec.k, dist.support_size,
                             f"{shannon_entropy(dist):.12f}",
                             f"{participation_ratio(dist):.12f}",
                             f"{topk_mass(dist, args.topk):.12f}",
                             f"{rec.residual_norm:.12e}", rec.residual_source])
    finally:
        if args.out:
            out.close()
    return 0


def batch_sweep(problem, configs, fci_energy: float | None = None) -> list[dict]:
    """Independent seeded runs; one summary row each, no cross-run state."""
    rows = []
    for config in configs:
        trace = run_quantum_jacobi(problem, config)
        rows.append(trace.summary_row(fci_energy))
    return rows


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fci":
            return _cmd_fci(args)
        if args.command == "jw-dump":
            return _cmd_jw_dump(args)
        if args.command == "diag":
            return _cmd_diag(args)
        raise CliError("bad-flags", f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"qjacobi-error: {exc.tag}: {exc}", file=sys.stderr)
        return 2
    except (FCIDumpError, ValueError) as exc:
        print(f"qjacobi-error: invalid-input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qjacobi-error: io: {exc}", file=sys.stderr)
        return 2
    except QJRunError as exc:
        print(f"qjacobi-error: run-aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
