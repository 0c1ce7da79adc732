"""Spans around calls into qjacobi, recorded from the benchmark's side.

``Tracer.wrap`` replaces a module or class attribute with a timing wrapper,
so every call the program makes through that name opens a span whose parent
is the span open at the time.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
from time import perf_counter

# span fields: name, layer, parent index (-1 for none), start, end, counts
NAME, LAYER, PARENT, START, END, COUNTS = range(6)


def _operator_sizes(args, result) -> dict:
    return {"in": len(args[0].terms), "out": len(result.terms)}


# Counts recorded at the boundary where the work happens.
COUNTERS = {
    "fermion.bch_transform": _operator_sizes,
    "cumulant.cumulant_decompose": _operator_sizes,
    "pauli.bch_transform_pauli": _operator_sizes,
    "jacobi.truncate": _operator_sizes,
    "jacobi.classical_residual": lambda args, result: {"in": len(args[0].terms)},
    "jacobi.merge_step": lambda args, result: {"merged": int(result[1])},
    "statevector.apply_circuit": lambda args, result: {"steps": len(args[1].steps)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, on_result=None) -> None:
        """Time every call made through ``owner.attr``.

        ``on_result(args, result)`` runs after the span closes, outside it.
        """
        inner = getattr(owner, attr)
        layer = inner.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{inner.__qualname__}"
        counter = COUNTERS.get(name)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, layer, open_[-1] if open_ else -1, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if counter is not None:
                span[COUNTS] = counter(args, result)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def install_full(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer that run_quantum_jacobi,
    the CLI run command and cli.batch_sweep reach, besides the four that
    child.py always wraps (parse, build, run, FCI)."""
    from qjacobi import cli, jacobi, statevector, trace

    tracer.wrap(cli, "write_summary_csv")
    tracer.wrap(trace.RunTrace, "write_jsonl")
    for attr in ("classical_residual", "diagonal_element", "select_deterministic",
                 "select_stochastic", "generator_from_determinant", "measure_block",
                 "solve_givens", "merge_step", "transform_hamiltonian", "truncate",
                 "estimate_cnot_count", "generator_label", "CycleRecord",
                 "bch_transform", "bch_transform_pauli", "cumulant_decompose",
                 "jordan_wigner", "jw_generator"):
        tracer.wrap(jacobi, attr)
    tracer.wrap(jacobi.ResidualVector, "norm")
    tracer.wrap(jacobi.ResidualVector, "magnitudes")
    tracer.wrap(statevector.StatevectorBackend, "expectation")
    for attr in ("apply_circuit", "expectation_exact", "expectation_sampled",
                 "jordan_wigner"):
        tracer.wrap(statevector, attr)
