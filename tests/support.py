"""Helpers that only the tests use, and the dict loops kept as oracles.

The algebra helpers (products, commutators, sums) build operators through
their ``.terms`` views.  The oracles are the term-by-term dict loops that the
array passes of ``qjacobi.fermion``, ``qjacobi.cumulant`` and
``qjacobi.jacobi.truncate`` replaced; each returns ``(terms, constant)`` with
the loop's insertion order, for ``==`` comparisons.  ``apply_key_to_det``
acts one operator at a time on a determinant, ``hf_energy`` sums the
integrals of the occupied orbitals, and the device oracles apply one
excitation at a time over the full register.  The fermionic device oracles
are built on ``apply_key_to_det`` and share no code with
``fermion.term_action``, the kernel they check; the Pauli one keeps the
complex step that the real replay replaced.
"""

import math
from functools import lru_cache

import numpy as np

from qjacobi.fcidump import FCIDumpData
from qjacobi.fermion import (IDENTITY_KEY, ZERO_FLOOR, FermionOperator, conjugate_key,
                             key_support, normal_order, term_product)


# ---------------------------------------------------------------------------
# Operator algebra
# ---------------------------------------------------------------------------

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


def max_rank(op):
    return max((len(k[0]) for k in op.terms), default=0)


def fidelity(a, b):
    """|<a|b>|^2."""
    return float(abs(np.vdot(a, b)) ** 2)


def embed_in_full_space(vector, basis, n_qubits):
    """Lift a sector vector onto the full 2^n statevector."""
    full = np.zeros(1 << n_qubits, dtype=complex)
    for amp, det in zip(vector, basis.determinants):
        full[det] = amp
    return full


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
        e += data.one(p, p)
    for p, sp in occ:
        for q, sq in occ:
            e += 0.5 * data.two(p, p, q, q)
            if sp == sq:
                e -= 0.5 * data.two(p, q, q, p)
    return e


# ---------------------------------------------------------------------------
# Dict-loop oracles
# ---------------------------------------------------------------------------

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
# Device oracles
# ---------------------------------------------------------------------------

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
