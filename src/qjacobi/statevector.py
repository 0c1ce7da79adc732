"""Simulated quantum backend: statevectors, Givens circuits, measurement.

The statevector stands in for the quantum device.  Every rotation is real, so
circuits replay in float64.  A fermionic rotation applies the closed form
e^{theta A} = 1 + sin(theta) A + (1 - cos(theta)) A^2 in the determinant
basis as two gathers and one scatter, since A^2 = -1 on the determinants it
rotates; a Pauli rotation applies e^{i theta P} = cos(theta) - sin(theta) P'
as one gather, where P = i P' for a generator's X-string with one Y and P' is
a real signed permutation.

Each generator or string acts through a cached determinant map.  An FCIDUMP
Hamiltonian and every generator a run builds conserve N and S_z, so a
fermionic backend replays on the reference's (N, S_z) sector (36 of 256
amplitudes on H4, 400 of 4,096 on H6).  A 2x2 block's two states replay as
one stack, each row bit-identical to a lone replay.  Exact values measure
the replay through the Hamiltonian compiled once into a padded row table,
as one exactly rounded sum, so no summation order or zero amplitude reaches
them; sampled ones sum each string's products over the full register with
numpy's pairwise sum (gather tables, one row per X mask, in draw order).
Neither holds a complex array or calls BLAS.  One compiler,
``operator_entries``, gives the Hamiltonian, the FCI matrix and the fermionic
maps their entries and signs through ``fermion.term_action``, and the row
table keeps the floating-point operations of the term-by-term action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .fermion import FermionGenerator, FermionOperator, term_action
from .jordan_wigner import jordan_wigner
from .pauli import PauliGenerator, PauliOperator, _lexsort

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


# Determinant maps index the register with int32.
_MAX_QUBITS = 32

# Maps per cache: room for the generators of a long circuit.
_MAP_CACHE_SIZE = 2048
_ALPHA = 0x5555_5555_5555_5555  # the alpha spin orbitals: even bits, as in ``hamiltonian``


@lru_cache(maxsize=4)
def _register(dim: int) -> np.ndarray:
    """Every determinant of a 2^n register, read-only."""
    return _read_only(np.arange(dim, dtype=np.uint64))[0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


class Sector(NamedTuple):
    """The determinants of ``n_qubits`` with ``n_particles`` electrons, ``n_alpha``
    on the even (alpha) bits, each if not None; a state on a sector lists
    their amplitudes in increasing order."""

    n_qubits: int
    n_particles: int | None = None
    n_alpha: int | None = None


@lru_cache(maxsize=8)
def sector_dets(sector: Sector) -> np.ndarray:
    """``sector``'s ascending uint64 determinants, read-only, each spin's
    occupations enumerated apart: up to 64 modes, with no 2^n register."""
    n, k, n_alpha = sector
    if k is None:
        return _register(1 << n)
    spins = ([(range(n), k)] if n_alpha is None else
             [(range(0, n, 2), n_alpha), (range(1, n, 2), k - n_alpha)])
    dets = np.zeros(1, np.uint64)
    for modes, m in spins:
        masks = [sum(1 << q for q in c) for c in combinations(modes, m)] if m >= 0 else []
        dets = (dets[:, None] | np.array(masks, np.uint64)).ravel()
    return _read_only(np.sort(dets))[0]


def _pauli_parity(z, dets: np.ndarray) -> np.ndarray:
    """+-1 from a string's Z mask ``z``, per determinant in ``dets``."""
    zpar = np.bitwise_count(dets & np.uint64(z)) & np.uint8(1)
    return 1 - 2 * zpar.astype(np.int8)


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _pauli_map(key, shape: tuple[int, ...]):
    """Cached, read-only ``(src, factor)`` of the replayed ``shape``: (P s)[i]
    = phase factor[i] s.flat[src[i]], the phase i^popcount(x & z) kept
    outside; a stack's rows stay in place, as x < 2^n.  An entry is an int32
    index and a +-1 float64 factor: with m <= 2 registers the cache holds at
    most _MAP_CACHE_SIZE * 24 * 2^n bytes, 192 MiB at 12 qubits (pqj holds 42).
    """
    src = _register(math.prod(shape)) ^ np.uint64(key[0])
    return _read_only(src.astype(np.int32).reshape(shape),
                      _pauli_parity(key[1], src).astype(np.float64).reshape(shape))


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """An operator over a list of determinants as a padded row table, plus a
    constant: (op s)[i] = sum_d vals[d, i] s[cols[d, i]] + constant s[i].

    Column i lists row i's entries in term order, then zero-weight pads on
    position 0.  ``np.add.reduce`` down axis 0 adds each amplitude's
    products in that order from +0.0, as the term-wise action does, and a
    sum begun at +0.0 is never -0.0, so no pad changes a bit of a finite
    result.  A table is never one column wide: numpy sums that pairwise.
    """

    vals: np.ndarray
    cols: np.ndarray
    constant: float

    def apply(self, state: np.ndarray) -> np.ndarray:
        acc = np.add.reduce(state.take(self.cols) * self.vals, axis=0, initial=0.0)[:state.size]
        if self.constant:
            acc += self.constant * state
        return acc


_COMPILE_BLOCK = 1 << 14  # (term, column) pairs a compile forms at once


def operator_entries(op: FermionOperator, dets: np.ndarray):
    """``op`` on the ascending uint64 determinants ``dets`` as COO entries
    ``(rows, cols, vals)``, int32 positions in ``dets``, in term, then column
    order, signed through ``term_action``; entries whose row lies outside
    ``dets`` are dropped (the projection onto their span)."""
    step = max(1, _COMPILE_BLOCK // (dets.size or 1))
    parts = [(np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0))]
    for lo in range(0, op.coeffs.size, step):
        cre, ann = (a[lo:lo + step, None] for a in (op.cre, op.ann))
        hit, target, odd = term_action(cre, ann, dets)
        term, col = np.nonzero(hit)
        target = target[hit]
        row = np.searchsorted(dets, target)
        inside = dets[np.minimum(row, dets.size - 1)] == target
        c = op.coeffs[lo + term[inside]]
        parts.append((row[inside].astype(np.int32), col[inside].astype(np.int32),
                      np.where(odd[hit][inside], -c, c)))
    return tuple(map(np.concatenate, zip(*parts)))


def compile_operator(op: FermionOperator, dets: np.ndarray) -> SparseOperator:
    """``op`` on ``dets`` as a row table: each entry at its rank in its row,
    which a stable (radix) sort by row keeps in term order; int32 columns,
    which ``take`` gathers almost as fast as intp (indexing converts them)."""
    rows, cols, vals = operator_entries(op, dets)
    width = dets.size + (dets.size == 1)
    counts = np.bincount(rows, minlength=width)
    order = np.argsort(rows.astype(np.min_scalar_type(width)), kind="stable")
    row = rows[order].astype(np.intp)
    at = (np.arange(rows.size) - (np.cumsum(counts) - counts)[row], row)
    table = np.zeros((counts.max(initial=0), width))
    table[at] = vals[order]
    index = np.zeros(table.shape, np.int32)
    index[at] = cols[order]
    return SparseOperator(*_read_only(table, index), op.constant)


@lru_cache(maxsize=_MAP_CACHE_SIZE)
def _rotation_map(gen: FermionGenerator, sector: Sector, rows: int):
    """Cached, read-only ``(out, src, weight)``: (A psi)[out] = weight psi[src]
    in sector positions for A = s(E - E+), zero elsewhere, on a flattened
    stack of ``rows`` states, row j's positions offset by j sector sizes.

    One row holds the compiled s E, then its transpose negated: E and E+ have
    disjoint sources and targets, so each weight is the one nonzero term of
    s(E - E+).  A stack tiles the cached row, so each generator is compiled
    once per sector; a generator that moves an electron between spins on an
    S_z sector, whose entries the compile would all drop, raises ValueError.
    An entry per row is two int32 positions and an int8 weight, at most
    2^(n-1) per row on the register and S on a sector of S: with rows <= 2 the
    cache holds at most _MAP_CACHE_SIZE * 9 * 2^n bytes, 72 MiB at 12 qubits,
    or _MAP_CACHE_SIZE * 18 * S, 14 MiB on the H6 S_z sector (S = 400)."""
    if rows > 1:
        out, src, weight = _rotation_map(gen, sector, 1)
        shift = np.arange(rows, dtype=np.int32)[:, None] * np.int32(sector_dets(sector).size)
        return _read_only((out + shift).ravel(), (src + shift).ravel(), np.tile(weight, rows))
    cre, ann = gen.excitation
    if sector.n_alpha is not None and sum(q & 1 for q in cre) != sum(q & 1 for q in ann):
        raise ValueError(f"generator {gen.excitation} leaves the S_z sector")
    e_rows, e_cols, vals = operator_entries(FermionOperator({gen.excitation: gen.sign}),
                                            sector_dets(sector))
    return _read_only(np.concatenate((e_rows, e_cols)), np.concatenate((e_cols, e_rows)),
                      np.concatenate((vals, -vals)).astype(np.int8))


def _check_norm(state: np.ndarray) -> np.ndarray:
    """``state``, each row's norm checked over its float64 components (re, im
    interleaved); one ``np.vecdot`` gives every row's squared norm, and a NaN
    norm fails the check."""
    flat = state.view(np.float64)
    for norm in map(math.sqrt, np.vecdot(flat, flat).reshape(-1).tolist()):
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise FloatingPointError(f"statevector norm drifted to {norm!r}")
    return state


def apply_pauli_rotation(state: np.ndarray, gen: PauliGenerator, theta: float) -> np.ndarray:
    """e^{i theta P} state = cos(theta) state - sin(theta) P' state, also row-wise.

    The generator's one Y gives its string the phase i, so i sin(theta) P is
    -sin(theta) times the +-1 map P', gathered through a map of the state's
    shape.  The factors are exact and each product is rounded once, so the
    values equal those of i sin(theta) (P state), and a real state stays real.
    """
    if theta == 0.0:
        return state.copy()
    src, factor = _pauli_map(gen.key, state.shape)
    out = state.take(src)
    out *= factor
    out *= -math.sin(theta)
    out += math.cos(theta) * state
    return _check_norm(out)


def apply_fermionic_rotation(state: np.ndarray, gen: FermionGenerator, theta: float,
                             sector: Sector | None = None) -> np.ndarray:
    """e^{theta A} state through the closed form, exact for A^3 = -A, on
    ``sector`` (each row of a stack), or on the full register if that is None.

    A's sources and targets are disjoint and its weights +-1, so A^2 = -1 on
    the rotated amplitudes: two gathers and one scatter round as s + sin A s
    + (1 - cos) A^2 s summed left to right, ``+ 0.0`` turning -0.0 to +0.0
    elsewhere as that sum does.  The norm check sums these amplitudes only.
    """
    if theta == 0.0:
        return state.copy()
    n = state.shape[-1]
    out, src, weight = _rotation_map(gen, sector or Sector(n.bit_length() - 1), state.size // n)
    s_out = state.take(out)
    rot = math.sin(theta) * (weight * state.take(src)) + s_out
    rot -= (1.0 - math.cos(theta)) * s_out
    res = state + 0.0
    res.put(out, rot)
    return _check_norm(res)


_ROTATIONS = {FermionGenerator: apply_fermionic_rotation, PauliGenerator: apply_pauli_rotation}


def apply_step(state: np.ndarray, step: GivensStep, sector: Sector | None = None) -> np.ndarray:
    """One step on the full register, or on ``sector`` for fermionic steps."""
    gen = step.generator
    if sector is None:
        return _ROTATIONS[type(gen)](state, gen, step.angle)
    return apply_fermionic_rotation(state, gen, step.angle, sector)


def apply_circuit(state: np.ndarray, circuit: Circuit,
                  sector: Sector | None = None) -> np.ndarray:
    for step in reversed(circuit.steps):
        state = apply_step(state, step, sector)
    return state


def expectation_exact(op: SparseOperator, state: np.ndarray) -> float:
    """<s|H|s> for a real ``state`` on the determinants ``op`` was compiled
    over: one exactly rounded sum (``math.fsum``), so neither the summation
    order nor the zero amplitudes the state lists change it."""
    return math.fsum((state * op.apply(state)).tolist())


# Amplitudes of factor * P.state formed at once by a sampled expectation
# value: the block stays small, and caching every string's products would not.
_BLOCK_AMPLITUDES = 1 << 14


@dataclass(frozen=True, eq=False)
class SampledOperator:
    """A Pauli operator compiled for sampling on one register size.

    Row r is the r-th non-identity string in draw order (sorted by (x, z)),
    with the real coefficient ``coeffs[r]``; ``constant`` is the identity's
    coefficient.  For a real state s, <s|P|s> = sum_i factor[r, i]
    s[src[xrow[r], i]] s[i], one ``src`` row per X mask: the string's phase
    i^popcount(x & z) is folded into ``factor`` as +-1 for an even number of
    Y's and as 0 for an odd number, whose value on a real state is 0.
    """

    src: np.ndarray
    xrow: np.ndarray
    factor: np.ndarray
    coeffs: np.ndarray
    constant: float

    def means(self, state: np.ndarray) -> np.ndarray:
        """<s|P|s> per row for a real full-register ``state``: each row's
        products summed by ``np.add.reduce``, numpy's pairwise sum, which gives
        each row's bits; factor (a b) has the bits of (factor a) b (exact factor)."""
        prod = state[self.src] * state
        step = max(1, _BLOCK_AMPLITUDES // state.shape[0])
        means = np.empty(self.coeffs.size)
        for lo in range(0, means.size, step):
            rows = slice(lo, lo + step)
            means[rows] = np.add.reduce(self.factor[rows] * prod[self.xrow[rows]], axis=1)
        return means


def compile_sampled(op: PauliOperator, dim: int) -> SampledOperator:
    """``op``'s strings in expectation_sampled's draw order, as gather tables."""
    order = _lexsort((op.x, op.z))
    x, z, coeffs = op.x[order], op.z[order], op.coeffs[order]
    if np.any(np.abs(coeffs.imag) > _IMAG_TOL):
        raise ValueError("sampled operator must have real coefficients")
    ident = (x | z) == 0
    constant = float(coeffs[ident].real.sum())  # the one identity string, if any
    x, z, coeffs = x[~ident], z[~ident], coeffs[~ident]
    masks, xrow = np.unique(x, return_inverse=True)
    src = _register(dim)[None, :] ^ masks[:, None]
    factor = _pauli_parity(z[:, None], src[xrow])
    # i^popcount(x & z): +1, 0 (odd, imaginary), -1, 0
    factor *= np.array([1, 0, -1, 0], np.int8)[np.bitwise_count(x & z) & np.uint8(3), None]
    return SampledOperator(*_read_only(src.astype(np.int32), xrow.astype(np.int32), factor,
                                       coeffs.real.copy()), constant)


def expectation_sampled(op: SampledOperator, state: np.ndarray, shots_per_term: int,
                        rng: np.random.Generator) -> float:
    """Per-term two-point sampling of <s|H|s> on the full register: each
    non-identity string adds the mean of ``shots_per_term`` +-1 outcomes
    drawn with the exact probabilities, the identity is added exactly.  One
    binomial call draws over the strings in draw order, and the total adds
    the contributions one by one in that order (``np.cumsum``, never pairwise)."""
    if shots_per_term < 1:
        raise ValueError("shots_per_term must be >= 1")
    half = 0.5 * (1.0 + op.means(state))
    # min(1, max(0, half)) as Python evaluates it, NaN going to 0
    p_up = np.where(half > 0.0, half, 0.0)
    p_up = np.where(p_up < 1.0, p_up, 1.0)
    ups = rng.binomial(shots_per_term, p_up)
    terms = op.coeffs * (2.0 * ups / shots_per_term - 1.0)
    return float(np.cumsum(np.concatenate(([0.0 + op.constant], terms)))[-1])


class StatevectorBackend:
    """One run's simulated device: reference prep, circuit, measurement.

    With ``shots_per_term`` unset, expectation values are exact; otherwise
    they are sampled per Pauli term of the Jordan-Wigner mapped Hamiltonian
    from the Generator ``rng``.  Counters keep the value and shot tallies.

    A ``fermionic`` backend replays circuits of fermionic steps on the
    reference's (N, S_z) sector, or on its N sector if the Hamiltonian does
    not conserve S_z; others replay on the full register.  Exact values
    measure the replay; sampled ones and ``states`` scatter it to the register.
    """

    def __init__(self, n_qubits: int, reference: int, hamiltonian: FermionOperator,
                 shots_per_term: int | None = None, rng: np.random.Generator | None = None,
                 fermionic: bool = False):
        if n_qubits >= _MAX_QUBITS:
            raise ValueError(f"a register of {n_qubits} qubits exceeds the "
                             f"simulator's limit of {_MAX_QUBITS - 1}")
        if not 0 <= reference < 1 << n_qubits:
            raise ValueError("reference determinant outside the qubit register")
        if shots_per_term is not None and rng is None:
            raise ValueError("a sampled backend needs a random Generator")
        self.n_qubits = n_qubits
        self.hamiltonian = hamiltonian
        self.shots_per_term = shots_per_term
        self.rng = rng
        self.expectation_count = 0
        self.shots_used = 0
        keeps_sz = np.array_equal(*(np.bitwise_count(a & np.uint64(_ALPHA))
                                    for a in (hamiltonian.cre, hamiltonian.ann)))
        n_alpha = (reference & _ALPHA).bit_count() if keeps_sz else None
        self._sector = Sector(n_qubits, reference.bit_count(), n_alpha) if fermionic else None
        self._dets = sector_dets(self._sector or Sector(n_qubits))
        self._start, = _read_only((self._dets == reference).astype(np.float64))

    @cached_property
    def exact_hamiltonian(self) -> SparseOperator:
        return compile_operator(self.hamiltonian, self._dets)

    @cached_property
    def _strings(self) -> SampledOperator:
        return compile_sampled(jordan_wigner(self.hamiltonian), 1 << self.n_qubits)

    def _replay(self, circuit: Circuit, extra_steps: tuple) -> np.ndarray:
        """Row j: U(k) [extra_j] |Phi0> in float64 on the replayed determinants."""
        if len(extra_steps) << self.n_qubits > 1 << 31:
            raise ValueError("the stacked replay would overflow its int32 maps")
        return apply_circuit(np.stack([self._start if s is None else
                                       apply_step(self._start, s, self._sector)
                                       for s in extra_steps]), circuit, self._sector)

    def states(self, circuit: Circuit, extra_steps: tuple) -> np.ndarray:
        """The replay on the float64 full register, scattered from a sector."""
        if self._sector is None:
            return self._replay(circuit, extra_steps)
        full = np.zeros((len(extra_steps), 1 << self.n_qubits))
        full[:, self._dets] = self._replay(circuit, extra_steps)
        return full

    def expectation(self, circuit: Circuit, extra_step: GivensStep | None = None) -> float:
        return self.expectations(circuit, (extra_step,))[0]

    def expectations(self, circuit: Circuit, extra_steps: tuple) -> list[float]:
        """One value per extra step (None for none), from one stacked replay,
        the rows measured in order."""
        self.expectation_count += len(extra_steps)
        if self.shots_per_term is None:
            h = self.exact_hamiltonian
            return [expectation_exact(h, row) for row in self._replay(circuit, extra_steps)]
        self.shots_used += len(extra_steps) * self.shots_per_term * self._strings.coeffs.size
        return [expectation_sampled(self._strings, row, self.shots_per_term, self.rng)
                for row in self.states(circuit, extra_steps)]
