"""Run records and their JSONL/CSV serialization.

A trace holds the initial record plus one record per completed cycle, so its
line count is always cycles + 1.  Serialization is byte-deterministic for a
fixed seed and configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = (
    "schema_version", "method", "epsilon", "kappa", "merge_threshold",
    "shots_per_term", "seed", "n_qubits", "n_electrons", "cycles",
    "hf_energy", "final_energy", "fci_energy", "fci_error", "k_c",
    "expectation_values", "shots_used", "final_term_count",
    "circuit_length", "cnot_estimate", "termination",
)
# the RunConfig values a trace keeps, for its summary row
SUMMARY_CONFIG = ("epsilon", "kappa", "merge_threshold", "shots_per_term")


@dataclass
class CycleRecord:
    """Per-cycle observables; k = 0 is the initial Hartree-Fock record."""

    k: int
    energy: float
    phase: str
    term_count: int
    expectation_values: int
    shots_used: int
    circuit_length: int
    cnot_estimate: int
    generator: str | None = None
    pick_determinant: int | None = None
    abs_residual_amplitude: float | None = None
    coupling: float | None = None
    e_mu: float | None = None
    theta: float | None = None
    merged: bool = False
    residual_norm: float | None = None
    residual_source: str | None = None
    residual_magnitudes: dict[int, float] | None = None

    def to_json(self) -> str:
        d = dict(vars(self), schema=SCHEMA_VERSION)  # shallow: residual_magnitudes is rebuilt below
        if self.residual_magnitudes is not None:
            d["residual_magnitudes"] = {str(k): v for k, v in sorted(self.residual_magnitudes.items())}
        for name, value in d.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite value for {name!r} in cycle {self.k}")
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "CycleRecord":
        d = json.loads(line)
        d.pop("schema", None)
        if d.get("residual_magnitudes") is not None:
            d["residual_magnitudes"] = {int(k): float(v) for k, v in d["residual_magnitudes"].items()}
        return cls(**d)


@dataclass
class RunTrace:
    """Full record of one quantum Jacobi run."""

    method: str
    n_qubits: int
    n_electrons: int
    seed: int
    config: dict  # the SUMMARY_CONFIG values of the run's RunConfig
    records: list[CycleRecord] = field(default_factory=list)
    k_c: int | None = None
    termination: str = "max_cycles"
    final_circuit: object = field(default=None, repr=False, compare=False)  # not serialized

    @property
    def hf_energy(self) -> float:
        return self.records[0].energy

    @property
    def final_energy(self) -> float:
        return self.records[-1].energy

    @property
    def cycles(self) -> int:
        return len(self.records) - 1

    def energies(self) -> list[float]:
        return [r.energy for r in self.records]

    def to_jsonl(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_jsonl())

    def summary_row(self, fci_energy: float | None = None) -> dict:
        last = self.records[-1]
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            **{name: self.config.get(name) for name in SUMMARY_CONFIG},
            "seed": self.seed,
            "n_qubits": self.n_qubits,
            "n_electrons": self.n_electrons,
            "cycles": self.cycles,
            "hf_energy": self.hf_energy,
            "final_energy": self.final_energy,
            "fci_energy": fci_energy,
            "fci_error": None if fci_energy is None else abs(self.final_energy - fci_energy),
            "k_c": self.k_c,
            "expectation_values": last.expectation_values,
            "shots_used": last.shots_used,
            "final_term_count": last.term_count,
            "circuit_length": last.circuit_length,
            "cnot_estimate": last.cnot_estimate,
            "termination": self.termination,
        }


def read_trace_jsonl(path) -> list[CycleRecord]:
    with open(path, "r", encoding="ascii") as fh:
        return [CycleRecord.from_json(line) for line in fh if line.strip()]


def write_summary_csv(rows: Iterable[dict], path) -> None:
    import csv

    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in SUMMARY_COLUMNS})
