"""Simulated quantum backend: statevectors, Givens circuits, measurement.

The statevector stands in for the quantum device.  Fermionic rotations are
applied natively in the determinant basis through the nilpotent closed form
e^{theta A} = 1 + sin(theta) A + (1 - cos(theta)) A^2; Pauli rotations through
e^{i theta P} = cos(theta) + i sin(theta) P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fermion import FermionGenerator, FermionOperator, Key, conjugate_key
from .jordan_wigner import jordan_wigner
from .pauli import PAULI_IDENTITY, PauliGenerator, PauliOperator

_NORM_TOL = 1e-10
_IMAG_TOL = 1e-10

Generator = FermionGenerator | PauliGenerator


@dataclass(frozen=True)
class GivensStep:
    """One Givens rotation: a generator and its angle in radians."""

    generator: Generator
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("rotation angle must be finite")


@dataclass(frozen=True)
class Circuit:
    """Ordered Givens steps; the newest (last) step acts on the state first.

    This matches U = u(1) u(2) .. u(k) applied to |Phi0> right to left, so the
    candidate rotations of the matrix-element measurements sit innermost.
    """

    steps: tuple[GivensStep, ...] = ()

    def appended(self, step: GivensStep) -> "Circuit":
        return Circuit(self.steps + (step,))

    def __len__(self) -> int:
        return len(self.steps)


def prepare_determinant(n_qubits: int, det: int) -> np.ndarray:
    if det < 0 or det >= 1 << n_qubits:
        raise ValueError("determinant outside the qubit register")
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[det] = 1.0
    return state


def apply_excitation(state: np.ndarray, key: Key) -> np.ndarray:
    """E . state for one canonical term, vectorized over determinants."""
    cre, ann = key
    dim = state.shape[0]
    idx = np.arange(dim, dtype=np.uint64)
    ann_mask = np.uint64(sum(1 << q for q in ann))
    cre_mask = np.uint64(sum(1 << q for q in cre))
    ok = (idx & ann_mask) == ann_mask
    mid = idx & ~ann_mask
    ok &= (mid & cre_mask) == 0
    src = idx[ok]
    if src.size == 0:
        return np.zeros_like(state)
    mid = mid[ok]
    target = mid | cre_mask
    par = np.zeros(src.shape, dtype=np.uint64)
    for j, q in enumerate(ann):  # prior annihilations all sit below q
        par += np.bitwise_count(src & np.uint64((1 << q) - 1)) - np.uint64(j)
    for p in cre:  # creations applied descending never see later ones below
        par += np.bitwise_count(mid & np.uint64((1 << p) - 1))
    sign = 1.0 - 2.0 * (par & np.uint64(1)).astype(float)
    out = np.zeros_like(state)
    out[target.astype(np.int64)] = sign * state[src.astype(np.int64)]
    return out


def apply_pauli_string(state: np.ndarray, key) -> np.ndarray:
    """P . state with exact phases."""
    x, z = key
    dim = state.shape[0]
    idx = np.arange(dim, dtype=np.uint64)
    src = idx ^ np.uint64(x)
    phase = (1j) ** ((x & z).bit_count() & 3)
    zpar = (np.bitwise_count(src & np.uint64(z)) & np.uint64(1)).astype(float)
    return phase * (1.0 - 2.0 * zpar) * state[src.astype(np.int64)]


def apply_operator(op, state: np.ndarray) -> np.ndarray:
    """H . state, term-wise sparse action."""
    acc = np.zeros_like(state)
    if isinstance(op, FermionOperator):
        for key, coeff in op.terms.items():
            acc += coeff * apply_excitation(state, key)
        if op.constant:
            acc += op.constant * state
        return acc
    for key, coeff in op.terms.items():
        if key == PAULI_IDENTITY:
            acc += coeff * state
        else:
            acc += coeff * apply_pauli_string(state, key)
    return acc


def _check_norm(state: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > _NORM_TOL:
        raise FloatingPointError(f"statevector norm drifted to {norm!r}")
    return state


def apply_pauli_rotation(state: np.ndarray, gen: PauliGenerator, theta: float) -> np.ndarray:
    """e^{i theta P} state = cos(theta) state + i sin(theta) P state."""
    if theta == 0.0:
        return state.copy()
    out = math.cos(theta) * state + 1j * math.sin(theta) * apply_pauli_string(state, gen.key)
    return _check_norm(out)


def apply_fermionic_rotation(state: np.ndarray, gen: FermionGenerator, theta: float) -> np.ndarray:
    """e^{theta A} state through the closed form, exact for A^3 = -A."""
    if theta == 0.0:
        return state.copy()
    s = float(gen.sign)
    a1 = s * (apply_excitation(state, gen.excitation)
              - apply_excitation(state, conjugate_key(gen.excitation)))
    a2 = s * (apply_excitation(a1, gen.excitation)
              - apply_excitation(a1, conjugate_key(gen.excitation)))
    out = state + math.sin(theta) * a1 + (1.0 - math.cos(theta)) * a2
    return _check_norm(out)


def apply_step(state: np.ndarray, step: GivensStep) -> np.ndarray:
    if isinstance(step.generator, FermionGenerator):
        return apply_fermionic_rotation(state, step.generator, step.angle)
    return apply_pauli_rotation(state, step.generator, step.angle)


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    for step in reversed(circuit.steps):
        state = apply_step(state, step)
    return state


def expectation_exact(op, state: np.ndarray) -> float:
    """<s|H|s>; the imaginary residue must stay below 1e-10."""
    val = complex(np.vdot(state, apply_operator(op, state)))
    if abs(val.imag) > _IMAG_TOL:
        raise FloatingPointError(f"expectation has imaginary residue {val.imag!r}")
    return val.real


def expectation_sampled(op: PauliOperator, state: np.ndarray, shots_per_term: int,
                        rng) -> float:
    """Per-term two-point sampling of <s|H|s>.

    Every non-identity string contributes the mean of ``shots_per_term``
    independent +-1 outcomes drawn with the exact probabilities; identity
    terms are added exactly.  The simulated budget is shots_per_term x term
    count.
    """
    if shots_per_term < 1:
        raise ValueError("shots_per_term must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    total = 0.0
    for key in sorted(op.terms):  # fixed draw order for reproducibility
        coeff = op.terms[key]
        if abs(coeff.imag) > _IMAG_TOL:
            raise ValueError("sampled operator must have real coefficients")
        if key == PAULI_IDENTITY:
            total += coeff.real
            continue
        mean = complex(np.vdot(state, apply_pauli_string(state, key)))
        if abs(mean.imag) > _IMAG_TOL:
            raise FloatingPointError("Pauli expectation has imaginary residue")
        p_up = min(1.0, max(0.0, 0.5 * (1.0 + mean.real)))
        ups = int(rng.binomial(shots_per_term, p_up))
        total += coeff.real * (2.0 * ups / shots_per_term - 1.0)
    return total


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2."""
    return float(abs(np.vdot(a, b)) ** 2)


class StatevectorBackend:
    """One run's simulated device: reference prep, circuit, measurement.

    With ``shots_per_term`` unset, expectation values are exact; otherwise
    they are sampled per Pauli term of the Jordan-Wigner mapped Hamiltonian,
    drawing from the backend's explicit RNG stream.  Counters keep the
    expectation-value and shot tallies for the run trace.
    """

    def __init__(self, n_qubits: int, reference: int, hamiltonian,
                 shots_per_term: int | None = None, rng=None):
        self.n_qubits = n_qubits
        self.reference = reference
        self.hamiltonian = hamiltonian
        self.shots_per_term = shots_per_term
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.expectation_count = 0
        self.shots_used = 0
        self._pauli_h: PauliOperator | None = None

    def pauli_hamiltonian(self) -> PauliOperator:
        if self._pauli_h is None:
            self._pauli_h = jordan_wigner(self.hamiltonian)
        return self._pauli_h

    def state(self, circuit: Circuit, extra_step: GivensStep | None = None) -> np.ndarray:
        """U(k) [extra] |Phi0>, the extra candidate rotation acting first."""
        state = prepare_determinant(self.n_qubits, self.reference)
        if extra_step is not None:
            state = apply_step(state, extra_step)
        return apply_circuit(state, circuit)

    def expectation(self, circuit: Circuit, extra_step: GivensStep | None = None) -> float:
        state = self.state(circuit, extra_step)
        self.expectation_count += 1
        if self.shots_per_term is None:
            return expectation_exact(self.hamiltonian, state)
        ph = self.pauli_hamiltonian()
        self.shots_used += self.shots_per_term * ph.term_count()
        return expectation_sampled(ph, state, self.shots_per_term, self.rng)
