"""Helpers that only the tests use, and the dict loops kept as oracles.

The algebra helpers (Wick normal ordering, products, commutators, sums) build
operators through their ``.terms`` views, on the generic recursive Wick
reorder ``_reorder``; its ``term_product`` is the oracle for the direct
contraction of ``qjacobi.fermion.term_product``, term order included.  The
oracles are the term-by-term dict loops that the array passes of
``qjacobi.fermion``, ``qjacobi.cumulant``, ``qjacobi.jacobi.truncate`` and
``qjacobi.hamiltonian`` replaced; each returns ``(terms, constant)`` with the
loop's insertion order, compared key by key in order and value by value in
IEEE bits (``bits``).  ``dense_matrix`` fills
a complex matrix one ``act`` at a time, the oracle for the compiled FCI
matrix, and ``jw_generator_loop`` keeps the two accumulation loops over E
and E+ that ``jw_generator``'s one pass replaced.  ``apply_key_to_det`` acts
one operator at a time on a determinant, ``hf_energy`` sums the integrals of
the occupied orbitals, and the device oracles apply one excitation at a time
over the full register.  The device
conveniences (``prepare_determinant``, ``expectation_exact``,
``expectation_sampled``) measure full-register states through the compiled
kernels, real or complex ones exactly and real ones by sampling.  The
fermionic device oracles are built on ``apply_key_to_det`` and share no code
with ``fermion.term_action``, the kernel they check; the Pauli one keeps the
complex step that the real replay replaced.  ``pauli_step_flat`` and
``fermionic_step_two_pass`` keep the float64 steps that the shaped Pauli maps
and the gather-only fermionic closed form replaced, the oracles for their
bits.
"""

import hashlib
import math
import pathlib
import struct
from functools import lru_cache

import numpy as np

from qjacobi import statevector
from qjacobi.fcidump import FCIDumpData, _canonical_one, _canonical_two, parse_fcidump
from qjacobi.fermion import ZERO_FLOOR, FermionOperator, Key, conjugate_key, key_support
from qjacobi.hamiltonian import build_hamiltonian
from qjacobi.jacobi import RunConfig, run_quantum_jacobi
from qjacobi.jordan_wigner import _jw_key
from qjacobi.pauli import PauliOperator

IDENTITY_KEY = ((), ())


# ---------------------------------------------------------------------------
# Operator algebra
# ---------------------------------------------------------------------------

def _sort_parity(seq) -> int:
    inv = 0
    n = len(seq)
    for i in range(n):
        si = seq[i]
        for j in range(i + 1, n):
            if si > seq[j]:
                inv += 1
    return -1 if inv & 1 else 1


@lru_cache(maxsize=1 << 18)
def _reorder(events: tuple[int, ...]) -> tuple[tuple[Key, int], ...]:
    """Wick-reorder an event string into canonical terms with integer signs."""
    for i in range(len(events) - 1):
        a, b = events[i], events[i + 1]
        if not a & 1 and b & 1:
            # a_q a+_p = delta_qp - a+_p a_q
            acc: dict[Key, int] = {}
            for key, c in _reorder(events[:i] + (b, a) + events[i + 2 :]):
                acc[key] = acc.get(key, 0) - c
            if a >> 1 == b >> 1:
                for key, c in _reorder(events[:i] + events[i + 2 :]):
                    acc[key] = acc.get(key, 0) + c
            return tuple((k, c) for k, c in acc.items() if c)
    cre = [e >> 1 for e in events if e & 1]
    ann = [e >> 1 for e in events if not e & 1]
    if len(set(cre)) != len(cre) or len(set(ann)) != len(ann):
        return ()
    # creations sort ascending; annihilations sort to descending written order
    sign = _sort_parity(cre) * _sort_parity([-q for q in ann])
    return (((tuple(sorted(cre)), tuple(sorted(ann))), sign),)


def _merge(t1, t2):
    # both ascending; parity of sorting the written concatenation t1 + t2
    inv = 0
    for x in t1:
        for y in t2:
            if x == y:
                return None
            if x > y:
                inv += 1
    return tuple(sorted(t1 + t2)), (-1 if inv & 1 else 1)


@lru_cache(maxsize=1 << 17)
def term_product(key_a: Key, key_b: Key) -> tuple[tuple[Key, int], ...]:
    """Normal-ordered product of two canonical terms (integer coefficients).

    Contractions can only arise between the annihilations of ``key_a`` and the
    creations of ``key_b``; the outer operators merge by pure permutation.
    The middle ``a_{ann_a} .. a+_{cre_b} ..`` is normal-ordered by ``_reorder``.
    """
    cre_a, ann_a = key_a
    cre_b, ann_b = key_b
    out: dict[Key, int] = {}
    middle = tuple(q << 1 for q in reversed(ann_a)) + tuple((p << 1) | 1 for p in cre_b)
    for (cre_m, ann_m), c0 in _reorder(middle):
        mc = _merge(cre_a, cre_m)
        if mc is None:
            continue
        # annihilations are written descending, ann_m then ann_b: reversed,
        # that is ann_b + ann_m ascending
        ma = _merge(ann_b, ann_m)
        if ma is None:
            continue
        key = (mc[0], ma[0])
        out[key] = out.get(key, 0) + c0 * mc[1] * ma[1]
    return tuple((k, c) for k, c in out.items() if c)


def normal_order(events, coefficient=1.0):
    """Normal order a raw string of (index, is_creation) events, scaled by
    ``coefficient``, into ``(terms, constant)`` with dust pruned.

    Anticommutator contractions generate the lower-rank terms; the result is
    canonical and the function is idempotent on already-canonical input.
    """
    enc = tuple((int(q) << 1) | (1 if c else 0) for q, c in events)
    terms = {}
    constant = 0.0
    for key, c in _reorder(enc):
        if key == IDENTITY_KEY:
            constant += coefficient * c
        else:
            terms[key] = terms.get(key, 0.0) + coefficient * c
    terms = {k: c for k, c in terms.items() if abs(c) > ZERO_FLOOR}
    return terms, (0.0 if abs(constant) <= ZERO_FLOOR else constant)


def normal_op(events, coefficient=1.0):
    """``normal_order`` as a FermionOperator."""
    return FermionOperator(*normal_order(events, coefficient))


def scaled(op, factor):
    return FermionOperator({k: factor * c for k, c in op.terms.items()}, factor * op.constant)


def plus(a, b):
    terms = dict(a.terms)
    for k, c in b.terms.items():
        terms[k] = terms.get(k, 0.0) + c
    return FermionOperator(terms, a.constant + b.constant).pruned()


def multiply(a, b):
    """Normal-ordered operator product, coefficients combined exactly."""
    constant = a.constant * b.constant
    terms = {}
    if b.constant:
        for k, c in a.terms.items():
            terms[k] = terms.get(k, 0.0) + c * b.constant
    if a.constant:
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0.0) + c * a.constant
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            w = ca * cb
            for k, c in term_product(ka, kb):
                if k == IDENTITY_KEY:
                    constant += w * c
                else:
                    terms[k] = terms.get(k, 0.0) + w * c
    return FermionOperator(terms, constant).pruned()


def commutator(a, b):
    return plus(multiply(a, b), scaled(multiply(b, a), -1.0))


def excitation_rank(key):
    """Number of creation (= annihilation) operators in the term."""
    return len(key[0])


def generator_operator(gen):
    """The anti-Hermitian A = E - E+ of a FermionGenerator as an operator."""
    return FermionOperator({gen.excitation: float(gen.sign),
                            conjugate_key(gen.excitation): -float(gen.sign)})


def is_hermitian_loop(op, tol=1e-10):
    """``FermionOperator.is_hermitian`` as a dict loop over the terms."""
    terms = op.terms
    return not any(abs(c - terms.get(conjugate_key(k), 0.0)) > tol for k, c in terms.items())


def max_rank(op):
    return max((len(k[0]) for k in op.terms), default=0)


def fidelity(a, b):
    """|<a|b>|^2."""
    return float(abs(np.vdot(a, b)) ** 2)


def embed_in_full_space(vector, dets, n_qubits):
    """Lift a vector over the determinants ``dets`` onto the full 2^n statevector."""
    full = np.zeros(1 << n_qubits, dtype=complex)
    for amp, det in zip(vector, dets):
        full[det] = amp
    return full


def one_integral(data, p, q):
    """h_pq through the symmetry h_pq = h_qp."""
    return data.one_body.get(_canonical_one(p, q), 0.0)


def two_integral(data, p, q, r, s):
    """(pq|rs) expanded through the 8-fold permutational symmetry."""
    return data.two_body.get(_canonical_two(p, q, r, s), 0.0)


def dense_matrix(op, n_qubits, dets=None):
    """<nu| op |mu> by sparse action on the determinants ``dets``, in
    complex128: the oracle for the compiled FCI matrix.

    ``dets=None`` uses the full 2^n space ordered by integer value.  Entries
    landing outside a restricted basis are discarded (the sector projection).
    """
    dets = range(1 << n_qubits) if dets is None else [int(d) for d in dets]
    index = {d: i for i, d in enumerate(dets)}
    mat = np.zeros((len(dets), len(dets)), dtype=complex)
    for j, d in enumerate(dets):
        for d2, value in op.act(d).items():
            i = index.get(d2)
            if i is not None:
                mat[i, j] = value
    return mat


def hf_energy(data: FCIDumpData) -> float:
    """Independent closed-shell style HF energy over occupied spin orbitals,
    the oracle for the assembled Hamiltonian's reference energy.

    E = sum_i h_ii + 1/2 sum_ij [(ii|jj) - (ij|ji)] + core, with i, j running
    over occupied spin orbitals and spin deltas applied to the exchange term.
    """
    occ = []
    n_alpha = (data.n_electrons + data.ms2) // 2
    n_beta = data.n_electrons - n_alpha
    for i in range(n_alpha):
        occ.append((i + 1, 0))
    for i in range(n_beta):
        occ.append((i + 1, 1))
    e = data.core_energy
    for p, _ in occ:
        e += one_integral(data, p, p)
    for p, sp in occ:
        for q, sq in occ:
            e += 0.5 * two_integral(data, p, p, q, q)
            if sp == sq:
                e -= 0.5 * two_integral(data, p, q, q, p)
    return e


# ---------------------------------------------------------------------------
# Dict-loop oracles
# ---------------------------------------------------------------------------

def bits(items):
    """``(key, value)`` pairs with each value as its IEEE bytes (real, imag),
    so that a comparison tells -0.0 from 0.0, which ``==`` does not."""
    return [(k, struct.pack("<dd", complex(v).real, complex(v).imag)) for k, v in items]


def _pruned(terms, constant, floor):
    return ({k: c for k, c in terms.items() if abs(c) > floor},
            0.0 if abs(constant) <= floor else constant)


def wick_structure(key, gen):
    """(linear_case, [E,A], [[E,A],A]) of one key, or None if [E,A] = 0.

    The commutators of the full key come through ``term_product``, with the
    overlap rule for the closed-form case.
    """
    g, gd, s = gen.excitation, conjugate_key(gen.excitation), gen.sign

    def comm(k):
        acc = {}
        for left, right, sign in ((k, g, 1), (g, k, -1), (k, gd, -1), (gd, k, 1)):
            for kk, c in term_product(left, right):
                acc[kk] = acc.get(kk, 0) + sign * c
        return tuple((kk, s * c) for kk, c in acc.items() if c)

    support = key_support(g)
    if key_support(key) & support == 0:
        return None
    c1 = comm(key)
    if not c1:
        return None
    acc2 = {}
    for k, c in c1:
        for kk, cc in comm(k):
            acc2[kk] = acc2.get(kk, 0) + c * cc
    c2 = tuple((k, c) for k, c in acc2.items() if c)
    flip = (key_support((key[0], ())) ^ key_support(((), key[1]))) & support
    return (flip not in (0, support), c1, c2)


def bch_loop(op, gen, theta, floor=ZERO_FLOOR):
    """``bch_transform`` as a dict loop over ``wick_structure``."""
    if theta == 0.0:
        return dict(op.terms), op.constant
    lin_s, lin_c = math.sin(theta), 1.0 - math.cos(theta)
    gen_s, gen_c = 0.5 * math.sin(2.0 * theta), 0.5 * math.sin(theta) ** 2
    out = {}
    for key, h in op.terms.items():
        out[key] = out.get(key, 0.0) + h
        struct = wick_structure(key, gen)
        if struct is None:
            continue
        linear_case, c1, c2 = struct
        fs, fc = (lin_s, lin_c) if linear_case else (gen_s, gen_c)
        hfs = h * fs
        hfc = h * fc
        for k, c in c1:
            out[k] = out.get(k, 0.0) + hfs * c
        for k, c in c2:
            out[k] = out.get(k, 0.0) + hfc * c
    constant = op.constant + out.pop(IDENTITY_KEY, 0.0)
    return _pruned(out, constant, floor)


def classify_indices(key):
    """Split a key into (pure creations, pure annihilations, spectators).

    Spectator indices appear in both the creation and annihilation parts and
    carry no net excitation; rank = #pure pairs + #spectators.
    """
    cre, ann = key
    spectators = tuple(q for q in cre if q in ann)
    return (tuple(q for q in cre if q not in ann), tuple(q for q in ann if q not in cre),
            spectators)


def _factored_sign(pure_cre, pure_ann, spectators):
    """Sign relating the canonical key to its pure x spectator factored form."""
    inv = sum(p > r for r in spectators for p in pure_cre + pure_ann)
    return -1 if inv & 1 else 1


def _contract(out, pure_cre, pure_ann, spectators, coeff):
    if len(pure_cre) + len(spectators) <= 2 or not spectators:
        key = (tuple(sorted(pure_cre + spectators)), tuple(sorted(pure_ann + spectators)))
        out[key] = out.get(key, 0.0) + coeff * _factored_sign(pure_cre, pure_ann, spectators)
        return
    w = coeff / len(spectators)
    for j in range(len(spectators)):
        _contract(out, pure_cre, pure_ann, spectators[:j] + spectators[j + 1:], w)


def cumulant_loop(op, kappa, reference, floor=ZERO_FLOOR):
    """``cumulant_decompose`` as a recursive dict loop."""
    out = {}
    for key, h in op.terms.items():
        pure_cre, pure_ann, spectators = classify_indices(key)
        if excitation_rank(key) <= 2 or abs(h) >= kappa or not spectators:
            out[key] = out.get(key, 0.0) + h
        elif all(reference >> r & 1 for r in spectators):
            h_factored = h * _factored_sign(pure_cre, pure_ann, spectators)
            _contract(out, pure_cre, pure_ann, spectators, h_factored)
    return _pruned(out, op.constant, floor)


def truncate_loop(op, epsilon, n_electrons):
    """The fermionic branch of ``jacobi.truncate`` as a dict loop."""
    kept = {}
    for key, coeff in op.terms.items():
        rank = excitation_rank(key)
        if rank <= n_electrons and (rank <= 2 or abs(coeff) >= epsilon):
            kept[key] = coeff
    return kept, op.constant


def jw_generator_loop(gen):
    """Pauli image of -i s(E - E+) accumulated over E's strings, then E+'s:
    the oracle for ``jw_generator``'s one pass over E's strings."""
    out = {}
    for pk, pc in _jw_key(gen.excitation):
        out[pk] = out.get(pk, 0.0) - 1j * gen.sign * pc
    for pk, pc in _jw_key(conjugate_key(gen.excitation)):
        out[pk] = out.get(pk, 0.0) + 1j * gen.sign * pc
    return PauliOperator(out).pruned()


def build_hamiltonian_loop(data):
    """The terms and constant of ``hamiltonian.build_hamiltonian`` as a dict
    loop: every integral read through ``one_integral``/``two_integral``, every
    piece through ``normal_order``."""
    n = data.n_spatial
    terms = {}
    constant = data.core_energy

    def add(events, coefficient):
        nonlocal constant
        piece, piece_constant = normal_order(events, coefficient)
        constant += piece_constant
        for k, c in piece.items():
            terms[k] = terms.get(k, 0.0) + c

    for p in range(1, n + 1):
        for q in range(1, n + 1):
            v = one_integral(data, p, q)
            if v == 0.0:
                continue
            for s in (0, 1):
                add([(2 * (p - 1) + s, True), (2 * (q - 1) + s, False)], v)

    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, n + 1):
                for s_ in range(1, n + 1):
                    v = two_integral(data, p, q, r, s_)
                    if v == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            add([(2 * (p - 1) + sig, True), (2 * (r - 1) + tau, True),
                                 (2 * (s_ - 1) + tau, False), (2 * (q - 1) + sig, False)],
                                0.5 * v)
    return _pruned(terms, constant, ZERO_FLOOR)


def apply_key_to_det(key, det):
    """Apply a canonical term to a determinant bitstring, one operator at a
    time: ``(sign, new_det)``, or None when the term annihilates the state.
    Each operator's sign counts the occupied modes below its index, the
    Jordan-Wigner convention."""
    cre, ann = key
    d = det
    sign = 1
    for q in ann:  # a_{q1} acts first (ascending)
        b = 1 << q
        if not d & b:
            return None
        if (d & (b - 1)).bit_count() & 1:
            sign = -sign
        d ^= b
    for p in reversed(cre):  # a+_{pn} acts first (descending)
        b = 1 << p
        if d & b:
            return None
        if (d & (b - 1)).bit_count() & 1:
            sign = -sign
        d |= b
    return sign, d


def act_loop(op, det):
    """``FermionOperator.act`` as a dict loop over ``apply_key_to_det``."""
    out = {det: op.constant}
    for key, coeff in op.terms.items():
        res = apply_key_to_det(key, det)
        if res is not None:
            sign, d2 = res
            out[d2] = out.get(d2, 0.0) + coeff * sign
    return out


# ---------------------------------------------------------------------------
# Device conveniences and oracles
# ---------------------------------------------------------------------------

def prepare_determinant(n_qubits, det, dtype=complex):
    """|det> as a statevector over the full register, complex by default."""
    if det < 0 or det >= 1 << n_qubits:
        raise ValueError("determinant outside the qubit register")
    state = np.zeros(1 << n_qubits, dtype=dtype)
    state[det] = 1.0
    return state


def expectation_exact(op, state):
    """<s|op|s> of a real symmetric FermionOperator on a full-register state,
    real or complex: compiled over the register, with the real and the
    imaginary part measured apart (their cross terms cancel)."""
    sparse = statevector.compile_operator(op, np.arange(state.size, dtype=np.uint64))
    return sum(statevector.expectation_exact(sparse, part) for part in (state.real, state.imag))


def apply_add_at(entries, constant, state):
    """op . state from op's COO ``entries`` (``statevector.operator_entries``)
    and constant: the products scattered with ``np.add.at`` into +0.0, which
    sums each row in entry order, then the constant term.  The compiled
    kernel before its row table, kept as the table's bit-exact oracle."""
    rows, cols, vals = entries
    acc = np.zeros_like(state)
    np.add.at(acc, rows, vals * state[cols])
    if constant:
        acc += constant * state
    return acc


def expectation_sampled(op, state, shots_per_term, rng):
    """The sampled estimator for a PauliOperator, compiled on the state's
    register, with a seed or a Generator.  It measures real states; a complex
    one must have a zero imaginary part and is measured as its real part."""
    if np.any(np.imag(state)):
        raise ValueError("the sampled estimator measures real states")
    return statevector.expectation_sampled(statevector.compile_sampled(op, state.size),
                                           np.real(state), shots_per_term,
                                           np.random.default_rng(rng))


@lru_cache(maxsize=2048)
def excitation_map(key, dim):
    """Read-only ``(src, target, sign)``: E|src> = sign |target> on a register
    of ``dim`` amplitudes, one determinant after another."""
    src, target, sign = [], [], []
    for d in range(dim):
        res = apply_key_to_det(key, d)
        if res is not None:
            src.append(d)
            sign.append(res[0])
            target.append(res[1])
    arrays = (np.array(src, dtype=np.int64), np.array(target, dtype=np.int64),
              np.array(sign, dtype=np.int8))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def apply_excitation(state, key):
    """E . state for one canonical term: one gather/scatter over its map."""
    src, target, sign = excitation_map(key, state.shape[0])
    out = np.zeros_like(state)
    out[target] = sign * state[src]
    return out


def fermionic_rotation_loop(state, gen, theta):
    """e^{theta A} state over the full register with A and A^2 each formed as
    s(E psi - E+ psi): the four-gather step the signed map replaced."""
    if theta == 0.0:
        return state.copy()
    s = float(gen.sign)
    a1 = s * (apply_excitation(state, gen.excitation)
              - apply_excitation(state, conjugate_key(gen.excitation)))
    a2 = s * (apply_excitation(a1, gen.excitation)
              - apply_excitation(a1, conjugate_key(gen.excitation)))
    return state + math.sin(theta) * a1 + (1.0 - math.cos(theta)) * a2


def pauli_rotation_loop(state, gen, theta):
    """e^{i theta P} state in complex arithmetic, the string's phase
    i^popcount(x & z) folded into the scalar i sin(theta): the complex step
    the real one replaced, with its own string map."""
    if theta == 0.0:
        return state.copy()
    x, z = gen.key
    src = np.arange(state.shape[0]) ^ x
    factor = np.where(np.bitwise_count(src & z) & 1, -1, 1)
    turn = 1j * math.sin(theta) * (1j) ** ((x & z).bit_count() & 3)
    return math.cos(theta) * state + turn * (factor * state[src])


def pauli_step_flat(state, gen, theta):
    """The float64 Pauli step before maps took the state's shape: a flat map
    of ``state.size`` entries with an int8 +-1 factor, two multiplies, then
    the cosine term over the raveled state."""
    if theta == 0.0:
        return state.copy()
    x, z = gen.key
    src = (np.arange(state.size) ^ x).astype(np.int32)
    factor = np.where(np.bitwise_count(src & z) & 1, -1, 1).astype(np.int8)
    out = state.take(src)
    out *= factor
    out *= -math.sin(theta)
    out += math.cos(theta) * state.ravel()
    return out.reshape(state.shape)


def fermionic_step_two_pass(state, gen, theta, sector=None):
    """The fermionic step before the gather-only closed form: A and then A^2
    each one gather/scatter over the generator's signed map into zeros, then
    state + sin(theta) A s + (1 - cos(theta)) A^2 s summed left to right."""
    if theta == 0.0:
        return state.copy()
    n = state.shape[-1]
    sector = sector or statevector.Sector(n.bit_length() - 1)
    out, src, weight = statevector._rotation_map(gen, sector, state.size // n)
    a1 = np.zeros_like(state)
    a1.put(out, weight * state.take(src))
    a2 = np.zeros_like(state)
    a2.put(out, weight * a1.take(src))
    a1 *= math.sin(theta)
    a1 += state
    a2 *= 1.0 - math.cos(theta)
    a1 += a2
    return a1


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

# Short exact runs: the first 20 cycles of the H4 cfqj sweep at seed 0 and an
# exact Pauli run
EXACT_RUNS = (dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=20, rng_seed=0,
                   energy_floor=0.0),
              dict(method="exact-bch-pauli", max_cycles=10))


# A short shot-sampled run: the first 30 cycles of the h4-pqj-shots run at seed 7
SAMPLED_RUN = dict(method="pqj", epsilon=1e-4, max_cycles=30, shots_per_term=1000, rng_seed=7,
                   merge_threshold=1e-2)


def sampled_trace_digest(fcidump_path):
    """The sha256 of the SAMPLED_RUN trace on an FCIDUMP file."""
    problem = build_hamiltonian(parse_fcidump(pathlib.Path(fcidump_path).read_text()))
    return hashlib.sha256(run_quantum_jacobi(problem, RunConfig(**SAMPLED_RUN)).to_jsonl()
                          .encode("ascii")).hexdigest()


def exact_trace_digests(fcidump_path):
    """The sha256 of each EXACT_RUNS trace on an FCIDUMP file, in order."""
    problem = build_hamiltonian(parse_fcidump(pathlib.Path(fcidump_path).read_text()))
    return [hashlib.sha256(run_quantum_jacobi(problem, RunConfig(**cfg)).to_jsonl()
                           .encode("ascii")).hexdigest() for cfg in EXACT_RUNS]
