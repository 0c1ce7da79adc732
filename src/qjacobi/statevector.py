"""Simulated quantum backend: statevectors, Givens circuits, measurement.

The statevector stands in for the quantum device.  Fermionic rotations are
applied natively in the determinant basis through the nilpotent closed form
e^{theta A} = 1 + sin(theta) A + (1 - cos(theta)) A^2; Pauli rotations through
e^{i theta P} = cos(theta) - sin(theta) P', where P = i P' for a generator's
X-string with one Y and P' is a real signed permutation.  Every rotation is
real, so circuits replay in float64; a state turns complex only when it is
scattered to the full register to be measured.

Each fermionic generator or Pauli string acts through a determinant map
computed once and cached.  Fermionic circuits never leave the reference's
particle-number sector (70 of 256 amplitudes on H4, 924 of 4,096 on H6), so a
backend for them replays states there.  A backend compiles its fermionic
Hamiltonian once into term-ordered sparse arrays for exact values, or its
Jordan-Wigner image into per-string gather tables in draw order for sampled
ones.  Fermionic maps and the compiled Hamiltonian take their entries and
signs from ``fermion.term_action``, the kernel behind ``FermionOperator.act``.
All of them keep the floating-point operations of the term-by-term action, so
every value is bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, singledispatch
from typing import NamedTuple

import numpy as np

from .fermion import FermionGenerator, FermionOperator, _mask, term_action
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


class Sector(NamedTuple):
    """The determinants of ``n_qubits`` holding ``n_particles`` electrons, or
    all of them when that is None; a state on a sector lists their amplitudes
    in increasing order."""

    n_qubits: int
    n_particles: int | None = None


@lru_cache(maxsize=8)
def _sector_dets(sector: Sector) -> np.ndarray:
    register = _register(1 << sector.n_qubits)
    if sector.n_particles is None:
        return register
    return _read_only(register[np.bitwise_count(register) == sector.n_particles])[0]


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _rotation_map(gen: FermionGenerator, sector: Sector):
    """Cached, read-only ``(out, src, weight)``: (A psi)[out] = weight psi[src]
    in sector positions for A = s(E - E+), zero elsewhere.

    E+ maps each target of E back to its source with the same sign, so the two
    have disjoint sources and targets and each weight is the one nonzero term
    of s(E - E+).  A generator rotates at most 2^(n-1) of 2^n determinants,
    each one entry of two int32 positions and an int8 weight: the cache holds
    at most _MAP_CACHE_SIZE * 4.5 * 2^n bytes, 36 MiB at 12 qubits.
    """
    dets = _sector_dets(sector)
    hit, target, odd = term_action(*(np.uint64(_mask(k)) for k in gen.excitation), dets)
    src = np.flatnonzero(hit).astype(np.int32)
    target = np.searchsorted(dets, target[hit]).astype(np.int32)
    sign = 1 - 2 * odd[hit].astype(np.int8)
    return _read_only(np.concatenate((target, src)), np.concatenate((src, target)),
                      gen.sign * np.concatenate((sign, -sign)))


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


_COMPILE_BLOCK = 1 << 14  # (term, column) pairs a compile forms at once


def compile_operator(op: FermionOperator, dets: np.ndarray) -> SparseOperator:
    """The COO form of ``op`` restricted to the columns ``dets`` (uint64).

    Leaving out a column drops only entries that multiply a zero amplitude, so
    a state supported on ``dets`` gets the same value as over all columns.
    Blocks of terms go through ``term_action``; entries keep term, then column order.
    """
    step = max(1, _COMPILE_BLOCK // dets.size)
    parts = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))]
    for lo in range(0, op.coeffs.size, step):
        cre, ann = (a[lo:lo + step, None] for a in (op.cre, op.ann))
        hit, target, odd = term_action(cre, ann, dets)
        term, col = np.nonzero(hit)
        c = op.coeffs[lo + term]
        parts.append((target[hit].astype(np.int32), dets[col].astype(np.int32),
                      np.where(odd[hit], -c, c)))
    return SparseOperator(*map(np.concatenate, zip(*parts)), op.constant)


def _check_norm(state: np.ndarray) -> np.ndarray:
    """``state``, its norm checked over its float64 components (re and im
    interleaved when complex): it may differ from sqrt(re.re + im.im) in the last bits."""
    flat = state.view(np.float64)
    norm = math.sqrt(flat.dot(flat))
    if abs(norm - 1.0) > _NORM_TOL:
        raise FloatingPointError(f"statevector norm drifted to {norm!r}")
    return state


def apply_pauli_rotation(state: np.ndarray, gen: PauliGenerator, theta: float) -> np.ndarray:
    """e^{i theta P} state = cos(theta) state - sin(theta) P' state.

    The generator's one Y gives its string the phase i, so i sin(theta) P is
    -sin(theta) times the +-1 map P'.  The factors are exact and each product
    is rounded once, so the values equal those of i sin(theta) (P state), and
    a real state stays real.
    """
    if theta == 0.0:
        return state.copy()
    src, factor = _pauli_map(gen.key, state.shape[0])
    out = state.take(src)
    out *= factor
    out *= -math.sin(theta)
    out += math.cos(theta) * state
    return _check_norm(out)


def apply_fermionic_rotation(state: np.ndarray, gen: FermionGenerator, theta: float,
                             sector: Sector | None = None) -> np.ndarray:
    """e^{theta A} state through the closed form, exact for A^3 = -A.

    ``state`` lists the amplitudes of ``sector``, or of the full register when
    that is None.  A and then A^2 act as one gather/scatter each over the
    generator's signed map.  The norm check sums over these amplitudes only,
    so on a sector its value can differ from the full register's in the last
    bits.
    """
    if theta == 0.0:
        return state.copy()
    out, src, weight = _rotation_map(gen, sector or Sector(state.shape[0].bit_length() - 1))
    a1 = np.zeros_like(state)
    a1.put(out, weight * state.take(src))
    a2 = np.zeros_like(state)
    a2.put(out, weight * a1.take(src))
    # state + sin(theta) a1 + (1 - cos(theta)) a2, summed left to right in place
    a1 *= math.sin(theta)
    a1 += state
    a2 *= 1.0 - math.cos(theta)
    a1 += a2
    return _check_norm(a1)


@singledispatch
def _rotation(state: np.ndarray, gen, theta: float) -> np.ndarray:
    """The rotation for a generator's type.  The generator is not the first
    argument, so steps look it up as ``_rotation.dispatch(type(gen))``."""
    raise TypeError(f"cannot apply a {type(gen).__name__}")


_rotation.register(FermionGenerator, apply_fermionic_rotation)
_rotation.register(PauliGenerator, apply_pauli_rotation)


def apply_step(state: np.ndarray, step: GivensStep, sector: Sector | None = None) -> np.ndarray:
    """One step on the full register, or on ``sector`` for fermionic steps."""
    gen = step.generator
    if sector is None:
        return _rotation.dispatch(type(gen))(state, gen, step.angle)
    return apply_fermionic_rotation(state, gen, step.angle, sector)


def apply_circuit(state: np.ndarray, circuit: Circuit,
                  sector: Sector | None = None) -> np.ndarray:
    for step in reversed(circuit.steps):
        state = apply_step(state, step, sector)
    return state


def expectation_exact(op, state: np.ndarray) -> float:
    """<s|H|s>; the imaginary residue must stay below 1e-10.

    ``op`` is a SparseOperator or a FermionOperator, compiled here over the
    full register.
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


class StatevectorBackend:
    """One run's simulated device: reference prep, circuit, measurement.

    With ``shots_per_term`` unset, expectation values are exact; otherwise
    they are sampled per Pauli term of the Jordan-Wigner mapped Hamiltonian,
    drawing from the backend's explicit RNG stream.  Counters keep the
    expectation-value and shot tallies for the run trace.

    A ``fermionic`` backend takes circuits of fermionic steps only.  It
    replays them on the reference's particle-number sector and scatters each
    state back to the full register to measure it; its exact Hamiltonian is
    compiled over the sector's columns, whose entries are all that reach the
    full-register value.  Other backends work on the full register.
    """

    def __init__(self, n_qubits: int, reference: int, hamiltonian: FermionOperator,
                 shots_per_term: int | None = None, rng=None, fermionic: bool = False):
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
        self._sector = Sector(n_qubits, reference.bit_count()) if fermionic else None
        self._dets = _sector_dets(self._sector or Sector(n_qubits))
        self._exact_h: SparseOperator | None = None

    def pauli_hamiltonian(self) -> PauliOperator:
        if self._pauli_h is None:
            self._pauli_h = jordan_wigner(self.hamiltonian)
        return self._pauli_h

    def exact_hamiltonian(self) -> SparseOperator:
        if self._exact_h is None:
            self._exact_h = compile_operator(self.hamiltonian, self._dets)
        return self._exact_h

    def state(self, circuit: Circuit, extra_step: GivensStep | None = None) -> np.ndarray:
        """U(k) [extra] |Phi0> on the full register, the extra candidate
        rotation acting first.  The replay is real; the result is complex."""
        state = prepare_determinant(self.n_qubits, self.reference).real[self._dets]
        if extra_step is not None:
            state = apply_step(state, extra_step, self._sector)
        state = apply_circuit(state, circuit, self._sector)
        full = np.zeros(1 << self.n_qubits, dtype=complex)
        full[self._dets] = state
        return full

    def expectation(self, circuit: Circuit, extra_step: GivensStep | None = None) -> float:
        state = self.state(circuit, extra_step)
        self.expectation_count += 1
        if self.shots_per_term is None:
            return expectation_exact(self.exact_hamiltonian(), state)
        if self._strings is None:
            self._strings = compile_sampled(self.pauli_hamiltonian(), 1 << self.n_qubits)
        self.shots_used += self.shots_per_term * self.pauli_hamiltonian().term_count()
        return expectation_sampled(self._strings, state, self.shots_per_term, self.rng)
