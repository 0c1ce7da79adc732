"""Quantum Jacobi iteration.

Each cycle: build the approximate residual classically, select a generator
(deterministic argmax until it repeats, then stochastic for good), measure the
2x2 effective block with two expectation values on the simulated device, solve
the Givens angle analytically, append or merge the rotation, and push the
classical Hamiltonian through the closed-form conjugation with truncation or
cumulant compression.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
# numpy loads numpy.random lazily: load it with the package, not in the first run
from numpy.random import SeedSequence, default_rng

from .cumulant import cumulant_decompose
from .fermion import FermionGenerator, FermionOperator, bch_transform
from .hamiltonian import MolecularProblem
from .jordan_wigner import jordan_wigner, jw_generator
from .pauli import (ZERO_FLOOR, PauliGenerator, PauliOperator, bch_transform_pauli,
                    pauli_label, pauli_weight)
from .statevector import Circuit, GivensStep, StatevectorBackend
from .trace import SUMMARY_CONFIG, CycleRecord, RunTrace

RESIDUAL_FLOOR = 1e-7  # a residual norm below it ends the run
ENERGY_FLOOR_DEFAULT = 1e-9
ENERGY_WINDOW = 5  # consecutive energy changes below energy_floor that end the run
_IMAG_TOL = 1e-9

# each method and its generator class, which fixes the operator flavour of a run
METHODS = {"pqj": PauliGenerator, "fqj": FermionGenerator, "cfqj": FermionGenerator,
           "exact-bch-fermionic": FermionGenerator, "exact-bch-pauli": PauliGenerator}
_TRUNCATED = {"pqj", "fqj", "cfqj"}


class QJRunError(RuntimeError):
    """Aborted run; ``trace`` preserves the cycles completed before failure."""

    def __init__(self, message: str, trace: RunTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ResidualVector:
    """(H_approx - E)|Phi0> expanded over determinants, Phi0 entry removed."""

    entries: dict[int, float]
    reference_energy: float

    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.entries.values()))

    def magnitudes(self) -> dict[int, float]:
        return {d: abs(c) for d, c in self.entries.items()}


@dataclass(frozen=True)
class EffectiveBlock:
    """Symmetric 2x2 Hamiltonian in the {|Phi0>, |Phi_mu>} basis."""

    e0: float
    e_mu: float
    c: float


@dataclass
class RunConfig:
    """Method and thresholds for one run; see METHODS for the variants."""

    method: str
    epsilon: float = 0.0
    kappa: float | None = None
    max_cycles: int = 100
    shots_per_term: int | None = None
    rng_seed: int = 0
    merge_threshold: float | None = None
    energy_floor: float = ENERGY_FLOOR_DEFAULT

    def validate(self) -> None:
        for name in ("epsilon", "kappa", "merge_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.kappa is not None and self.method != "cfqj":
            raise ValueError("kappa is only meaningful for cfqj")
        if self.merge_threshold is not None and self.merge_threshold < 0:
            raise ValueError("merge_threshold must be >= 0")
        if self.method in _TRUNCATED and self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.kappa is not None and self.kappa < self.epsilon:
            raise ValueError("kappa must be >= epsilon")
        counts = {"max_cycles": 0, "rng_seed": 0}
        if self.shots_per_term is not None:
            counts["shots_per_term"] = 1
        for name, low in counts.items():
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an int >= {low}")
        if not (math.isfinite(self.energy_floor) and self.energy_floor >= 0):
            raise ValueError("energy_floor must be finite and >= 0")

    def effective_kappa(self) -> float | None:
        if self.method != "cfqj":
            return None
        return self.kappa if self.kappa is not None else 10.0 * self.epsilon


def _real(value, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise FloatingPointError(f"{what} has imaginary residue")
    return value.real


def diagonal_element(h_approx, det: int) -> float:
    """<det|H|det> by sparse action; classical, linear in the term count."""
    return _real(h_approx.act(det).get(det, 0.0), "diagonal element")


def classical_residual(h_approx, phi0: int) -> ResidualVector:
    """Apply every term of H_approx to |Phi0> by bit operations.

    Cost is linear in the number of terms.  The diagonal (Phi0) component is
    removed into ``reference_energy``.
    """
    acc = h_approx.act(phi0)
    e_ref = _real(acc.pop(phi0, 0.0), "reference energy")
    entries = {d: _real(c, "residual amplitude") for d, c in acc.items() if abs(c) > ZERO_FLOOR}
    return ResidualVector(entries, e_ref)


def select_deterministic(residual: ResidualVector) -> int:
    """argmax over |c_mu|; ties broken by the lowest determinant bit-pattern."""
    if not residual.entries:
        raise ValueError("empty residual")
    return max(residual.entries.items(), key=lambda kv: (abs(kv[1]), -kv[0]))[0]


def select_stochastic(residual: ResidualVector, exclude: int | None, rng) -> int | None:
    """Sample mu with probability |c_mu|^2 over the space excluding the
    previous pick; None signals an empty reduced space (convergence)."""
    pool = [(d, c) for d, c in sorted(residual.entries.items()) if d != exclude]
    if not pool:
        return None
    w = np.array([c * c for _, c in pool], dtype=float)
    w /= w.sum()
    return int(pool[int(rng.choice(len(pool), p=w))][0])


def generator_from_determinant(phi0: int, phi_mu: int, flavor: type):
    """Build the Givens generator of class ``flavor`` connecting |Phi0> and
    |Phi_mu>.

    PauliGenerator: X on every differing qubit, Y on the lowest one.
    FermionGenerator: the pure excitation with <Phi_mu|E|Phi0> = +1.
    """
    return flavor.from_determinants(phi0, phi_mu)


def measure_block(circuit: Circuit, gen, e0: float, backend: StatevectorBackend) -> EffectiveBlock:
    """Two expectation values give the whole block; e0 is inherited from the
    previous cycle's eigenvalue and never re-measured.

    E_mu comes from the pi/2-rotated state and the coupling from the pi/4
    state minus (e0 + E_mu)/2; the device replays both states as one stack
    and measures them in that order.  A non-finite value raises
    FloatingPointError.
    """
    e_mu, mid = backend.expectations(
        circuit, (GivensStep(gen, math.pi / 2.0), GivensStep(gen, math.pi / 4.0)))
    if not (math.isfinite(e_mu) and math.isfinite(mid)):
        raise FloatingPointError(f"non-finite expectation value ({e_mu!r}, {mid!r})")
    return EffectiveBlock(e0=e0, e_mu=e_mu, c=mid - 0.5 * (e0 + e_mu))


def _rotated_diagonal(block: EffectiveBlock, theta: float) -> float:
    ct, st = math.cos(theta), math.sin(theta)
    return ct * ct * block.e0 + st * st * block.e_mu + math.sin(2.0 * theta) * block.c


def solve_givens(block: EffectiveBlock) -> tuple[float, float]:
    """Angle and lower eigenvalue of the 2x2 block.

    e_next is the lower branch (E0+Emu)/2 - sqrt(((E0-Emu)/2)^2 + c^2); theta
    is picked from {theta0, theta0 +- pi/2}, theta0 = atan(2c/(E0-Emu))/2, so
    that the rotated (0,0) entry lands on e_next.
    """
    e0, e_mu, c = block.e0, block.e_mu, block.c
    if c == 0.0:
        return 0.0, min(e0, e_mu)
    half = math.hypot(0.5 * (e0 - e_mu), c)
    e_next = 0.5 * (e0 + e_mu) - half
    if e0 == e_mu:
        theta0 = math.pi / 4.0 if c > 0 else -math.pi / 4.0
    else:
        theta0 = 0.5 * math.atan(2.0 * c / (e0 - e_mu))
    best = None
    for cand in (theta0, theta0 + math.pi / 2.0, theta0 - math.pi / 2.0):
        err = abs(_rotated_diagonal(block, cand) - e_next)
        score = (err, abs(cand), cand)
        if best is None or score < best:
            best = score
    return best[2], e_next


def truncate(h, epsilon: float, n_electrons: int):
    """Drop small terms; exact methods never call this.

    Pauli operators lose every string with |h| < epsilon except the identity.
    Fermionic operators keep every rank <= 2 term, keep rank > 2 only at
    |h| >= epsilon and lose rank > n_electrons outright.
    """
    if isinstance(h, PauliOperator):
        return h.subset(h.identity_mask() | (h.magnitudes() >= epsilon))
    rank = np.bitwise_count(h.cre)
    return h.subset((rank <= n_electrons) & ((rank <= 2) | (np.abs(h.coeffs) >= epsilon)))


def transform_hamiltonian(h_approx, gen, theta: float, config: RunConfig, reference: int):
    """Term-wise closed-form conjugation, then the method's compression.

    cfqj applies the cumulant screening to the freshly transformed operator
    before the epsilon truncation; exact methods skip filtering entirely.
    """
    if isinstance(h_approx, FermionOperator):
        out = bch_transform(h_approx, gen, theta)
    else:
        out = bch_transform_pauli(h_approx, gen, theta)
    if config.method == "cfqj":
        out = cumulant_decompose(out, config.effective_kappa(), reference)
    if config.method in _TRUNCATED:
        out = truncate(out, config.epsilon, reference.bit_count())
    return out


def merge_step(circuit: Circuit, step: GivensStep,
               merge_threshold: float | None) -> tuple[Circuit, bool]:
    """Absorb a small-angle repeat into its earliest occurrence.

    When |theta| < threshold and the generator already appears, the new angle
    is added onto the earliest matching step (first-order accurate); otherwise
    the step is appended.
    """
    if merge_threshold is not None and abs(step.angle) < merge_threshold:
        for i, old in enumerate(circuit.steps):
            if old.generator == step.generator:
                steps = list(circuit.steps)
                steps[i] = GivensStep(old.generator, old.angle + step.angle)
                return Circuit(tuple(steps)), True
    return circuit.appended(step), False


@lru_cache(maxsize=4096)
def _generator_cnot_cost(gen) -> int:
    keys = (gen.key,) if isinstance(gen, PauliGenerator) else jw_generator(gen).terms
    return sum(2 * max(pauli_weight(key) - 1, 0) for key in keys)


def estimate_cnot_count(circuit: Circuit) -> int:
    """Staircase count: a weight-w Pauli rotation costs 2(w-1) CNOTs; fermionic
    steps are expanded through Jordan-Wigner into their commuting factors."""
    return sum(_generator_cnot_cost(step.generator) for step in circuit.steps)


def generator_label(gen, n_qubits: int) -> str:
    if isinstance(gen, PauliGenerator):
        return "p:" + pauli_label(gen.key, n_qubits)
    cre, ann = gen.excitation
    sign = "+" if gen.sign > 0 else "-"
    return f"f:{sign}{','.join(map(str, ann))}->{','.join(map(str, cre))}"


def run_quantum_jacobi(problem: MolecularProblem, config: RunConfig) -> RunTrace:
    """Execute the full iteration on a fresh device and return its trace.

    Terminates on max_cycles, a residual norm below RESIDUAL_FLOOR, an empty
    selection space, or ENERGY_WINDOW energy changes below energy_floor in a
    row.  A FloatingPointError or ValueError in the residual, the selection
    and generator, the measurement, the angle solve and merge or the
    conjugation raises QJRunError with the trace of the cycles completed
    before; other exceptions propagate unchanged.
    """
    config.validate()
    flavor = METHODS[config.method]
    fermionic = flavor is FermionGenerator
    phi0 = problem.hf_determinant
    h_approx = problem.hamiltonian if fermionic else jordan_wigner(problem.hamiltonian)

    seed_seq = SeedSequence(config.rng_seed)
    sel_seed, meas_seed = seed_seq.spawn(2)
    sel_rng = default_rng(sel_seed)
    backend = StatevectorBackend(problem.n_qubits, phi0, problem.hamiltonian,
                                 shots_per_term=config.shots_per_term,
                                 rng=default_rng(meas_seed), fermionic=fermionic)

    residual_source = "exact" if config.method not in _TRUNCATED else "approximate"
    energy = diagonal_element(h_approx, phi0)
    trace = RunTrace(method=config.method, n_qubits=problem.n_qubits,
                     n_electrons=problem.n_electrons, seed=config.rng_seed,
                     config={name: getattr(config, name) for name in SUMMARY_CONFIG})
    circuit = Circuit()
    cnots = 0  # estimate_cnot_count(circuit): a merge keeps its step's generator
    trace.records.append(CycleRecord(
        k=0, energy=energy, phase="deterministic", term_count=h_approx.term_count(),
        expectation_values=backend.expectation_count, shots_used=backend.shots_used,
        circuit_length=0, cnot_estimate=0, residual_source=residual_source))

    phase = "deterministic"
    last_pick: int | None = None
    recent = deque(maxlen=ENERGY_WINDOW)
    trace.termination = "max_cycles"

    n_particles = phi0.bit_count()

    @contextmanager
    def stage(name: str):
        """End the run with QJRunError on a numerical failure inside."""
        try:
            yield
        except (FloatingPointError, ValueError) as exc:
            trace.termination = f"{name}_error: {exc}"
            trace.final_circuit = circuit
            raise QJRunError(str(exc), trace) from exc

    for k in range(1, config.max_cycles + 1):
        with stage("residual"):
            residual = classical_residual(h_approx, phi0)
        rnorm = residual.norm()
        if rnorm < RESIDUAL_FLOOR or not residual.entries:
            trace.termination = "residual_floor"
            break
        # Only particle-conserving determinant pairs admit a generator.  The
        # Pauli transform breaks particle number, so its symmetry-violating
        # residual entries are recorded but not selectable; fermionic
        # residuals conserve it and pass through unchanged.
        selectable = ResidualVector(
            {d: c for d, c in residual.entries.items()
             if d.bit_count() == n_particles}, residual.reference_energy)
        if not selectable.entries:
            trace.termination = "selection_space_empty"
            break
        with stage("selection"):
            if phase == "deterministic":
                pick = select_deterministic(selectable)
                if last_pick is not None and pick == last_pick:
                    phase = "stochastic"
                    trace.k_c = k
                    pick = select_stochastic(selectable, last_pick, sel_rng)
            else:
                pick = select_stochastic(selectable, last_pick, sel_rng)
            if pick is None:
                trace.termination = "selection_space_empty"
                break
            gen = generator_from_determinant(phi0, pick, flavor)
        with stage("backend"):
            block = measure_block(circuit, gen, energy, backend)
        with stage("angle"):
            theta, e_next = solve_givens(block)
            grown, merged = merge_step(circuit, GivensStep(gen, theta), config.merge_threshold)
        with stage("conjugation"):
            h_approx = transform_hamiltonian(h_approx, gen, theta, config, phi0)
        circuit = grown
        cnots += 0 if merged else _generator_cnot_cost(gen)
        previous, energy = energy, e_next
        trace.records.append(CycleRecord(
            k=k, energy=energy, phase=phase,
            term_count=h_approx.term_count(),
            expectation_values=backend.expectation_count,
            shots_used=backend.shots_used,
            circuit_length=len(circuit),
            cnot_estimate=cnots,
            generator=generator_label(gen, problem.n_qubits),
            pick_determinant=pick,
            abs_residual_amplitude=abs(residual.entries[pick]),
            coupling=block.c, e_mu=block.e_mu, theta=theta, merged=merged,
            residual_norm=rnorm, residual_source=residual_source,
            residual_magnitudes=residual.magnitudes()))
        last_pick = pick
        recent.append(abs(energy - previous))
        if len(recent) == ENERGY_WINDOW and all(d < config.energy_floor for d in recent):
            trace.termination = "energy_floor"
            break

    trace.final_circuit = circuit
    return trace
