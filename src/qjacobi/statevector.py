"""Simulated quantum backend: statevectors, Givens circuits, measurement.

The statevector stands in for the quantum device.  Fermionic rotations are
applied natively in the determinant basis through the nilpotent closed form
e^{theta A} = 1 + sin(theta) A + (1 - cos(theta)) A^2; Pauli rotations through
e^{i theta P} = cos(theta) + i sin(theta) P.

Each excitation or Pauli string acts through a determinant map (source and
target indices, a +-1 sign) computed once per register size and cached; a
backend compiles its Hamiltonian once into term-ordered sparse arrays for
exact values, or into per-string gather tables in draw order for sampled
ones.  All of them keep the floating-point operations of the term-by-term
action, so every value is bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, singledispatch

import numpy as np

from .fermion import FermionGenerator, FermionOperator, Key, conjugate_key
from .jordan_wigner import jordan_wigner
from .pauli import PauliGenerator, PauliOperator

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


# Determinant maps index the register with int32.
_MAX_QUBITS = 32

# Maps per cache: room for the generators of a long circuit.
_MAP_CACHE_SIZE = 2048


@lru_cache(maxsize=4)
def _register(dim: int) -> np.ndarray:
    """Every determinant of a 2^n register, read-only."""
    idx = np.arange(dim, dtype=np.uint64)
    idx.setflags(write=False)
    return idx


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _excitation_entries(key: Key, dets: np.ndarray):
    """``(src, target, sign)`` with E|src> = sign |target> for every
    determinant in ``dets`` (uint64) that the canonical term does not kill."""
    cre, ann = key
    ann_mask = np.uint64(sum(1 << q for q in ann))
    cre_mask = np.uint64(sum(1 << q for q in cre))
    ok = (dets & ann_mask) == ann_mask
    mid = dets & ~ann_mask
    ok &= (mid & cre_mask) == 0
    src = dets[ok]
    mid = mid[ok]
    par = np.zeros(src.shape, dtype=np.uint64)
    for j, q in enumerate(ann):  # prior annihilations all sit below q
        par += np.bitwise_count(src & np.uint64((1 << q) - 1)) - np.uint64(j)
    for p in cre:  # creations applied descending never see later ones below
        par += np.bitwise_count(mid & np.uint64((1 << p) - 1))
    sign = 1 - 2 * (par & np.uint64(1)).astype(np.int8)
    return src.astype(np.int32), (mid | cre_mask).astype(np.int32), sign


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _excitation_map(key: Key, dim: int):
    """Cached, read-only ``(src, target, sign)`` of one term on a 2^n register.

    A map has at most 2^(n-1) entries of two int32 indices and an int8 sign,
    so the cache holds at most _MAP_CACHE_SIZE * 4.5 * 2^n bytes of arrays:
    36 MiB at 12 qubits, 576 MiB at 16.
    """
    return _read_only(*_excitation_entries(key, _register(dim)))


def _pauli_parity(z, dets: np.ndarray) -> np.ndarray:
    """+-1 from a string's Z mask ``z``, per determinant in ``dets``."""
    zpar = np.bitwise_count(dets & np.uint64(z)) & np.uint8(1)
    return 1 - 2 * zpar.astype(np.int8)


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _pauli_map(key, dim: int):
    """Cached, read-only ``(src, factor)``: (P s)[i] = phase factor[i] s[src[i]]
    with the string's phase i^popcount(x & z) kept outside the map.

    A map has 2^n entries of an int32 index and an int8 factor, so the cache
    holds at most _MAP_CACHE_SIZE * 5 * 2^n bytes of arrays: 40 MiB at 12
    qubits, 640 MiB at 16.
    """
    src = _register(dim) ^ np.uint64(key[0])
    return _read_only(src.astype(np.int32), _pauli_parity(key[1], src))


def _pauli_phase(key) -> complex:
    x, z = key
    return (1j) ** ((x & z).bit_count() & 3)


def apply_excitation(state: np.ndarray, key: Key) -> np.ndarray:
    """E . state for one canonical term: one gather/scatter over its map."""
    src, target, sign = _excitation_map(key, state.shape[0])
    out = np.zeros_like(state)
    out[target] = sign * state[src]
    return out


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An operator as term-ordered COO entries plus a constant.

    Entry i adds ``vals[i] * state[cols[i]]`` to row ``rows[i]``.  Entries are
    concatenated in term order and a term hits each row at most once, so every
    row sums its contributions in the same order as applying one term after
    another: the result is bit-identical to the term-wise action.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    constant: complex

    def apply(self, state: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(state)
        np.add.at(acc, self.rows, self.vals * state[self.cols])
        if self.constant:
            acc += self.constant * state
        return acc


def _sparse(parts, constant) -> SparseOperator:
    """Concatenate per-term ``(rows, cols, vals)`` in term order."""
    empty = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))
    return SparseOperator(*(np.concatenate(arrays) for arrays in zip(empty, *parts)),
                          constant)


@singledispatch
def compile_operator(op, dets: np.ndarray) -> SparseOperator:
    """The COO form of ``op`` restricted to the columns ``dets`` (uint64).

    Leaving out a column drops only entries that multiply a zero amplitude, so
    a state supported on ``dets`` gets the same value as over all columns.
    """
    raise TypeError(f"cannot compile {type(op).__name__}")


@compile_operator.register(FermionOperator)
def _compile_fermionic(op: FermionOperator, dets: np.ndarray) -> SparseOperator:
    parts = []
    for key, coeff in op.terms.items():
        src, target, sign = _excitation_entries(key, dets)
        parts.append((target, src, coeff * sign))
    return _sparse(parts, op.constant)


@compile_operator.register(PauliOperator)
def _compile_pauli(op: PauliOperator, dets: np.ndarray) -> SparseOperator:
    # the identity is one more string, so no separate constant
    parts = [((dets ^ np.uint64(key[0])).astype(np.int32), dets.astype(np.int32),
              coeff * (_pauli_phase(key) * _pauli_parity(key[1], dets)))
             for key, coeff in op.terms.items()]
    return _sparse(parts, 0.0)


def _check_norm(state: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own formula for a complex vector, without its overhead
    re, im = state.real, state.imag
    norm = math.sqrt(re.dot(re) + im.dot(im))
    if abs(norm - 1.0) > _NORM_TOL:
        raise FloatingPointError(f"statevector norm drifted to {norm!r}")
    return state


def apply_pauli_rotation(state: np.ndarray, gen: PauliGenerator, theta: float) -> np.ndarray:
    """e^{i theta P} state = cos(theta) state + i sin(theta) P state.

    The string's phase joins the scalar i sin(theta): it and the +-1 factors
    are unit factors, so the values equal those of i sin(theta) (P state).
    """
    if theta == 0.0:
        return state.copy()
    key = gen.key
    src, factor = _pauli_map(key, state.shape[0])
    turn = 1j * math.sin(theta) * _pauli_phase(key)
    out = math.cos(theta) * state + turn * (factor * state[src])
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
    """<s|H|s>; the imaginary residue must stay below 1e-10.

    ``op`` is a SparseOperator or a raw operator, compiled here over the full
    register.
    """
    if not isinstance(op, SparseOperator):
        op = compile_operator(op, _register(state.shape[0]))
    val = complex(np.vdot(state, op.apply(state)))
    if abs(val.imag) > _IMAG_TOL:
        raise FloatingPointError(f"expectation has imaginary residue {val.imag!r}")
    return val.real


# Amplitudes of P.state formed at once by a sampled expectation value: the
# block stays small, and caching every string's complex factors would not.
_BLOCK_AMPLITUDES = 4096


@dataclass(frozen=True, eq=False)
class SampledOperator:
    """A Pauli operator compiled for sampling on one register size.

    Row r is the r-th non-identity string in draw order (sorted by (x, z)),
    (P s)[i] = phases[r] factor[r, i] s[src[r, i]], with the real coefficient
    ``coeffs[r]``; ``constant`` is the identity's coefficient.
    """

    src: np.ndarray
    factor: np.ndarray
    phases: np.ndarray
    coeffs: np.ndarray
    constant: float

    def means(self, state: np.ndarray) -> np.ndarray:
        """<s|P|s> per row: one vdot per string, as for a lone P.state."""
        rows = self.coeffs.size
        step = max(1, _BLOCK_AMPLITUDES // state.shape[0])
        means = np.empty(rows, dtype=complex)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            block = self.phases[lo:hi, None] * self.factor[lo:hi] * state[self.src[lo:hi]]
            means[lo:hi] = [np.vdot(state, row) for row in block]
        if np.any(np.abs(means.imag) > _IMAG_TOL):
            raise FloatingPointError("Pauli expectation has imaginary residue")
        return means.real


def compile_sampled(op: PauliOperator, dim: int) -> SampledOperator:
    """``op``'s strings in expectation_sampled's draw order, as gather tables."""
    order = np.lexsort((op.z, op.x))
    x, z, coeffs = op.x[order], op.z[order], op.coeffs[order]
    if np.any(np.abs(coeffs.imag) > _IMAG_TOL):
        raise ValueError("sampled operator must have real coefficients")
    ident = (x | z) == 0
    constant = float(coeffs[ident].real.sum())  # the one identity string, if any
    x, z, coeffs = x[~ident], z[~ident], coeffs[~ident]
    src = _register(dim)[None, :] ^ x[:, None]
    factor = _pauli_parity(z[:, None], src)
    phases = np.array([_pauli_phase(k) for k in zip(x.tolist(), z.tolist())], dtype=complex)
    return SampledOperator(*_read_only(src.astype(np.int32), factor, phases, coeffs.real.copy()),
                           constant)


def expectation_sampled(op, state: np.ndarray, shots_per_term: int, rng) -> float:
    """Per-term two-point sampling of <s|H|s>.

    Every non-identity string contributes the mean of ``shots_per_term``
    independent +-1 outcomes drawn with the exact probabilities; identity
    terms are added exactly.  The simulated budget is shots_per_term x term
    count.  ``op`` is a PauliOperator or its ``compile_sampled`` form.  The
    draws come from one binomial call over the strings in draw order, and the
    total adds the contributions one by one in that order.
    """
    if shots_per_term < 1:
        raise ValueError("shots_per_term must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if not isinstance(op, SampledOperator):
        op = compile_sampled(op, state.shape[0])
    half = 0.5 * (1.0 + op.means(state))
    # min(1, max(0, half)) as Python evaluates it, NaN going to 0
    p_up = np.where(half > 0.0, half, 0.0)
    p_up = np.where(p_up < 1.0, p_up, 1.0)
    ups = rng.binomial(shots_per_term, p_up)
    total = 0.0 + op.constant
    for term in (op.coeffs * (2.0 * ups / shots_per_term - 1.0)).tolist():
        total += term
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

    The Hamiltonian is compiled on first use: for exact values over the
    reference's particle-number sector, which fermionic circuits never leave,
    and once over the full register when a state to measure does leave it;
    for sampling into its strings in draw order.
    """

    def __init__(self, n_qubits: int, reference: int, hamiltonian,
                 shots_per_term: int | None = None, rng=None):
        if n_qubits >= _MAX_QUBITS:
            raise ValueError(f"a register of {n_qubits} qubits exceeds the "
                             f"simulator's limit of {_MAX_QUBITS - 1}")
        self.n_qubits = n_qubits
        self.reference = reference
        self.hamiltonian = hamiltonian
        self.shots_per_term = shots_per_term
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.expectation_count = 0
        self.shots_used = 0
        self._pauli_h: PauliOperator | None = None
        self._strings: SampledOperator | None = None
        register = _register(1 << n_qubits)
        in_sector = np.bitwise_count(register) == reference.bit_count()
        self._columns = register[in_sector]
        self._outside = np.flatnonzero(~in_sector)
        self._exact_h: SparseOperator | None = None

    def pauli_hamiltonian(self) -> PauliOperator:
        if self._pauli_h is None:
            self._pauli_h = jordan_wigner(self.hamiltonian)
        return self._pauli_h

    def exact_hamiltonian(self, state: np.ndarray) -> SparseOperator:
        """The compiled Hamiltonian, valid for measuring ``state``."""
        if self._outside.size and np.any(state[self._outside]):
            self._columns, self._outside = _register(state.shape[0]), self._outside[:0]
            self._exact_h = None
        if self._exact_h is None:
            self._exact_h = compile_operator(self.hamiltonian, self._columns)
        return self._exact_h

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
            return expectation_exact(self.exact_hamiltonian(state), state)
        if self._strings is None:
            self._strings = compile_sampled(self.pauli_hamiltonian(), 1 << self.n_qubits)
        self.shots_used += self.shots_per_term * self.pauli_hamiltonian().term_count()
        return expectation_sampled(self._strings, state, self.shots_per_term, self.rng)
