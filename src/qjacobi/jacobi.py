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
from dataclasses import asdict, dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .cumulant import cumulant_decompose
from .fermion import FermionGenerator, FermionOperator, bch_transform, excitation_rank
from .hamiltonian import MolecularProblem
from .jordan_wigner import jordan_wigner, jw_generator
from .pauli import (PauliGenerator, PauliOperator, bch_transform_pauli, pauli_label,
                    pauli_weight)
from .statevector import Circuit, GivensStep, StatevectorBackend
from .trace import CycleRecord, RunTrace

RESIDUAL_FLOOR_DEFAULT = 1e-7
ENERGY_FLOOR_DEFAULT = 1e-9
ENERGY_WINDOW_DEFAULT = 5
_ZERO = 1e-14
_IMAG_TOL = 1e-9

METHODS = ("pqj", "fqj", "cfqj", "exact-bch-fermionic", "exact-bch-pauli")
_FLAVOR = {"pqj": "pauli", "exact-bch-pauli": "pauli",
           "fqj": "fermionic", "cfqj": "fermionic", "exact-bch-fermionic": "fermionic"}
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
    residual_floor: float = RESIDUAL_FLOOR_DEFAULT
    energy_floor: float = ENERGY_FLOOR_DEFAULT
    energy_window: int = ENERGY_WINDOW_DEFAULT

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
        counts = {"max_cycles": 0, "rng_seed": 0, "energy_window": 1}
        if self.shots_per_term is not None:
            counts["shots_per_term"] = 1
        for name, low in counts.items():
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"{name} must be an int >= {low}")
        for name in ("residual_floor", "energy_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")

    def effective_kappa(self) -> float | None:
        if self.method != "cfqj":
            return None
        return self.kappa if self.kappa is not None else 10.0 * self.epsilon

    def as_dict(self) -> dict:
        return asdict(self)


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
    entries = {d: _real(c, "residual amplitude") for d, c in acc.items() if abs(c) > _ZERO}
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


def generator_from_determinant(phi0: int, phi_mu: int, flavor: str):
    """Build the Givens generator connecting |Phi0> and |Phi_mu>.

    Pauli flavor: X on every differing qubit, Y on the lowest one.  Fermionic
    flavor: the pure excitation with <Phi_mu|E|Phi0> = +1.
    """
    if flavor == "pauli":
        return PauliGenerator.from_determinants(phi0, phi_mu)
    if flavor == "fermionic":
        return FermionGenerator.from_determinants(phi0, phi_mu)
    raise ValueError(f"unknown generator flavor {flavor!r}")


def measure_block(circuit: Circuit, gen, e0: float, backend: StatevectorBackend) -> EffectiveBlock:
    """Two expectation values give the whole block; e0 is inherited from the
    previous cycle's eigenvalue and never re-measured.

    E_mu comes from the pi/2-rotated state and the coupling from the pi/4
    state minus (e0 + E_mu)/2.  A non-finite value raises FloatingPointError.
    """
    e_mu = backend.expectation(circuit, extra_step=GivensStep(gen, math.pi / 2.0))
    mid = backend.expectation(circuit, extra_step=GivensStep(gen, math.pi / 4.0))
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
    kept = {}
    for key, coeff in h.terms.items():
        rank = excitation_rank(key)
        if rank > n_electrons:
            continue
        if rank <= 2 or abs(coeff) >= epsilon:
            kept[key] = coeff
    return FermionOperator(kept, h.constant)


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
    if isinstance(gen, PauliGenerator):
        w = gen.weight()
        return 2 * (w - 1) if w > 1 else 0
    cost = 0
    for key in jw_generator(gen).terms:
        w = pauli_weight(key)
        cost += 2 * (w - 1) if w > 1 else 0
    return cost


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


def run_quantum_jacobi(problem: MolecularProblem, config: RunConfig,
                       backend: StatevectorBackend | None = None) -> RunTrace:
    """Execute the full iteration and return its trace.

    Terminates on max_cycles, the residual-norm floor, an empty stochastic
    selection space, or a stretch of negligible energy changes.  Numerical
    failures (FloatingPointError, ValueError) of the residual, the selection,
    the measurement, the angle solve and merge or the conjugation raise
    QJRunError with the trace of the cycles completed before; other exceptions
    propagate unchanged.
    """
    config.validate()
    flavor = _FLAVOR[config.method]
    phi0 = problem.hf_determinant
    if flavor == "pauli":
        h_approx = jordan_wigner(problem.hamiltonian)
    else:
        h_approx = problem.hamiltonian.copy()

    seed_seq = np.random.SeedSequence(config.rng_seed)
    sel_seed, meas_seed = seed_seq.spawn(2)
    sel_rng = np.random.default_rng(sel_seed)
    if backend is None:
        backend = StatevectorBackend(problem.n_qubits, phi0, problem.hamiltonian,
                                     shots_per_term=config.shots_per_term,
                                     rng=np.random.default_rng(meas_seed))

    residual_source = "exact" if config.method not in _TRUNCATED else "approximate"
    energy = diagonal_element(h_approx, phi0)
    trace = RunTrace(method=config.method, n_qubits=problem.n_qubits,
                     n_electrons=problem.n_electrons, seed=config.rng_seed,
                     config=config.as_dict())
    circuit = Circuit()
    trace.records.append(CycleRecord(
        k=0, energy=energy, phase="deterministic", term_count=h_approx.term_count(),
        expectation_values=backend.expectation_count, shots_used=backend.shots_used,
        circuit_length=0, cnot_estimate=0, residual_source=residual_source))

    phase = "deterministic"
    last_pick: int | None = None
    recent = deque(maxlen=config.energy_window)
    trace.termination = "max_cycles"

    n_particles = phi0.bit_count()

    def abort(stage: str, exc: Exception) -> QJRunError:
        trace.termination = f"{stage}_error: {exc}"
        trace.final_circuit = circuit
        return QJRunError(str(exc), trace)

    for k in range(1, config.max_cycles + 1):
        try:
            residual = classical_residual(h_approx, phi0)
        except (FloatingPointError, ValueError) as exc:
            raise abort("residual", exc) from exc
        rnorm = residual.norm()
        if rnorm < config.residual_floor or not residual.entries:
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
        try:
            if phase == "deterministic":
                pick = select_deterministic(selectable)
                if last_pick is not None and pick == last_pick:
                    phase = "stochastic"
                    trace.k_c = k
                    pick = select_stochastic(selectable, last_pick, sel_rng)
            else:
                pick = select_stochastic(selectable, last_pick, sel_rng)
        except (FloatingPointError, ValueError) as exc:
            raise abort("selection", exc) from exc
        if pick is None:
            trace.termination = "selection_space_empty"
            break
        gen = generator_from_determinant(phi0, pick, flavor)
        try:
            block = measure_block(circuit, gen, energy, backend)
        except (FloatingPointError, ValueError) as exc:
            raise abort("backend", exc) from exc
        try:
            theta, e_next = solve_givens(block)
            grown, merged = merge_step(circuit, GivensStep(gen, theta), config.merge_threshold)
        except (FloatingPointError, ValueError) as exc:
            raise abort("angle", exc) from exc
        try:
            h_approx = transform_hamiltonian(h_approx, gen, theta, config, phi0)
        except (FloatingPointError, ValueError) as exc:
            raise abort("conjugation", exc) from exc
        circuit = grown
        previous, energy = energy, e_next
        trace.records.append(CycleRecord(
            k=k, energy=energy, phase=phase,
            term_count=h_approx.term_count(),
            expectation_values=backend.expectation_count,
            shots_used=backend.shots_used,
            circuit_length=len(circuit),
            cnot_estimate=estimate_cnot_count(circuit),
            generator=generator_label(gen, problem.n_qubits),
            pick_determinant=pick,
            abs_residual_amplitude=abs(residual.entries[pick]),
            coupling=block.c, e_mu=block.e_mu, theta=theta, merged=merged,
            residual_norm=rnorm, residual_source=residual_source,
            residual_magnitudes=residual.magnitudes()))
        last_pick = pick
        recent.append(abs(energy - previous))
        if len(recent) == config.energy_window and all(d < config.energy_floor for d in recent):
            trace.termination = "energy_floor"
            break

    trace.final_circuit = circuit
    return trace
