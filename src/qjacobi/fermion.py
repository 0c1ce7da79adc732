"""Normal-ordered fermionic operator algebra.

A term is stored under a canonical key ``(creations, annihilations)`` where
both index tuples are strictly increasing and the key stands for the operator
string ``a+_{p1} .. a+_{pn} a_{qn} .. a_{q1}`` (annihilations written in
descending index order).  Any permutation met while reordering products is
folded into the coefficient through fermionic parity, so every operator has a
unique representation.

Only particle-number conserving terms are representable; everything produced
by products and commutators of such terms stays in this class.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

ZERO_FLOOR = 1e-14

Key = tuple[tuple[int, ...], tuple[int, ...]]
IDENTITY_KEY: Key = ((), ())


def conjugate_key(key: Key) -> Key:
    """Key of the Hermitian conjugate; the canonical form carries no sign."""
    cre, ann = key
    return (ann, cre)


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for q in indices:
        mask |= 1 << q
    return mask


def key_support(key: Key) -> int:
    return _mask(key[0]) | _mask(key[1])


def excitation_rank(key: Key) -> int:
    """Number of creation (= annihilation) operators in the term."""
    return len(key[0])


def classify_indices(key: Key) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split a key into (pure creations, pure annihilations, spectators).

    Spectator indices appear in both the creation and annihilation parts and
    carry no net excitation; rank = #pure pairs + #spectators.
    """
    cre, ann = key
    ann_set = set(ann)
    cre_set = set(cre)
    spectators = tuple(q for q in cre if q in ann_set)
    pure_cre = tuple(q for q in cre if q not in ann_set)
    pure_ann = tuple(q for q in ann if q not in cre_set)
    return pure_cre, pure_ann, spectators


def key_events(key: Key) -> tuple[int, ...]:
    """Written-order event string of a key; event = index << 1 | is_creation."""
    cre, ann = key
    return tuple((q << 1) | 1 for q in cre) + tuple(q << 1 for q in reversed(ann))


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


@lru_cache(maxsize=1 << 16)
def _cross(ann_desc: tuple[int, ...], cre_asc: tuple[int, ...]) -> tuple[tuple[Key, int], ...]:
    """Normal order ``a_{ann} .. * a+_{cre} ..`` (the middle of a product)."""
    events = tuple(q << 1 for q in ann_desc) + tuple((p << 1) | 1 for p in cre_asc)
    return _reorder(events)


def _merge_cre(t1, t2):
    # both ascending; parity of merging the written concatenation to ascending
    inv = 0
    for x in t1:
        for y in t2:
            if x == y:
                return None
            if x > y:
                inv += 1
    return tuple(sorted(t1 + t2)), (-1 if inv & 1 else 1)


def _merge_ann(t1, t2):
    # both written descending; parity of merging to fully descending order
    inv = 0
    for x in t1:
        for y in t2:
            if x == y:
                return None
            if x < y:
                inv += 1
    return tuple(sorted(t1 + t2)), (-1 if inv & 1 else 1)


@lru_cache(maxsize=1 << 17)
def term_product(key_a: Key, key_b: Key) -> tuple[tuple[Key, int], ...]:
    """Normal-ordered product of two canonical terms (integer coefficients).

    Contractions can only arise between the annihilations of ``key_a`` and the
    creations of ``key_b``; the outer operators merge by pure permutation.
    """
    cre_a, ann_a = key_a
    cre_b, ann_b = key_b
    out: dict[Key, int] = {}
    for (cre_m, ann_m), c0 in _cross(tuple(reversed(ann_a)), cre_b):
        mc = _merge_cre(cre_a, cre_m)
        if mc is None:
            continue
        ma = _merge_ann(ann_m, ann_b)
        if ma is None:
            continue
        key = (mc[0], ma[0])
        out[key] = out.get(key, 0) + c0 * mc[1] * ma[1]
    return tuple((k, c) for k, c in out.items() if c)


class FermionOperator:
    """Real linear combination of canonical excitation terms plus a constant."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict[Key, float] | None = None, constant: float = 0.0):
        self.terms: dict[Key, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @classmethod
    def zero(cls) -> "FermionOperator":
        return cls()

    @classmethod
    def identity(cls, coefficient: float = 1.0) -> "FermionOperator":
        return cls(constant=coefficient)

    def term_count(self) -> int:
        """Number of stored keys; the identity constant is not counted."""
        return len(self.terms)

    def copy(self) -> "FermionOperator":
        return FermionOperator(self.terms, self.constant)

    def scaled(self, factor: float) -> "FermionOperator":
        return FermionOperator({k: factor * c for k, c in self.terms.items()}, factor * self.constant)

    def plus(self, other: "FermionOperator") -> "FermionOperator":
        out = self.copy()
        out.constant += other.constant
        t = out.terms
        for k, c in other.terms.items():
            t[k] = t.get(k, 0.0) + c
        return out.pruned()

    def pruned(self, floor: float = ZERO_FLOOR) -> "FermionOperator":
        """Drop exact-arithmetic dust below ``floor`` (in place, returns self)."""
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > floor}
        if abs(self.constant) <= floor:
            self.constant = 0.0
        return self

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        for k, c in self.terms.items():
            if abs(c - self.terms.get(conjugate_key(k), 0.0)) > tol:
                return False
        return True

    def max_rank(self) -> int:
        return max((len(k[0]) for k in self.terms), default=0)

    def act(self, det: int) -> dict[int, float]:
        """Sparse action on one determinant: {det': <det'|op|det>}.

        The constant is entered at ``det`` first, then every term adds its
        signed coefficient in term order.
        """
        out = {det: self.constant}
        for key, coeff in self.terms.items():
            res = apply_key_to_det(key, det)
            if res is not None:
                sign, d2 = res
                out[d2] = out.get(d2, 0.0) + coeff * sign
        return out

    def __repr__(self) -> str:
        return f"FermionOperator({self.term_count()} terms, constant={self.constant:+.6g})"


def normal_order(events: Iterable[tuple[int, bool]], coefficient: float = 1.0) -> FermionOperator:
    """Normal order a raw string of (index, is_creation) events.

    Anticommutator contractions generate the lower-rank terms; the result is
    canonical and the function is idempotent on already-canonical input.
    """
    enc = tuple((int(q) << 1) | (1 if c else 0) for q, c in events)
    op = FermionOperator()
    for key, c in _reorder(enc):
        if key == IDENTITY_KEY:
            op.constant += coefficient * c
        else:
            op.terms[key] = op.terms.get(key, 0.0) + coefficient * c
    return op.pruned()


def multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Normal-ordered operator product, coefficients combined exactly."""
    out = FermionOperator(constant=a.constant * b.constant)
    t = out.terms
    if b.constant:
        for k, c in a.terms.items():
            t[k] = t.get(k, 0.0) + c * b.constant
    if a.constant:
        for k, c in b.terms.items():
            t[k] = t.get(k, 0.0) + c * a.constant
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            w = ca * cb
            for k, c in term_product(ka, kb):
                if k == IDENTITY_KEY:
                    out.constant += w * c
                else:
                    t[k] = t.get(k, 0.0) + w * c
    return out.pruned()


def commutator(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    return multiply(a, b).plus(multiply(b, a).scaled(-1.0))


def apply_key_to_det(key: Key, det: int):
    """Apply a canonical term to a determinant bitstring.

    Returns ``(sign, new_det)`` or ``None`` when the term annihilates the
    state.  Parity counts occupied modes below the acted index, consistent
    with the Jordan-Wigner convention.
    """
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


@dataclass(frozen=True)
class FermionGenerator:
    """Givens generator A = E - E+ built from a single pure excitation.

    ``sign`` orients E so that it maps the chosen reference determinant to the
    target determinant with amplitude +1.  Construction verifies the
    nilpotency A^3 = -A symbolically.
    """

    excitation: Key
    sign: int = 1

    def __post_init__(self):
        cre, ann = self.excitation
        if not cre or len(cre) != len(ann):
            raise ValueError("generator must be a particle-conserving excitation")
        if set(cre) & set(ann):
            raise ValueError("generator contains a spectator index")
        if self.sign not in (-1, 1):
            raise ValueError("generator sign must be +1 or -1")
        a = self.operator()
        a3 = multiply(multiply(a, a), a)
        residue = a3.plus(a)
        if residue.terms or residue.constant:
            raise ValueError("generator violates A^3 = -A")

    def operator(self) -> FermionOperator:
        """The anti-Hermitian A = E - E+ as a FermionOperator."""
        return FermionOperator({self.excitation: float(self.sign),
                                conjugate_key(self.excitation): -float(self.sign)})

    def rank(self) -> int:
        return len(self.excitation[0])

    @classmethod
    def from_determinants(cls, reference: int, target: int) -> "FermionGenerator":
        """Build the pure excitation mapping ``reference`` to ``target``.

        The sign is fixed so that E|reference> = +|target>.
        """
        if reference == target:
            raise ValueError("target determinant equals the reference")
        if reference.bit_count() != target.bit_count():
            raise ValueError("determinants differ in particle number")
        diff = reference ^ target
        ann = tuple(q for q in range(diff.bit_length()) if diff >> q & 1 and reference >> q & 1)
        cre = tuple(q for q in range(diff.bit_length()) if diff >> q & 1 and target >> q & 1)
        key = (cre, ann)
        res = apply_key_to_det(key, reference)
        assert res is not None and res[1] == target
        return cls(key, res[0])


# ---------------------------------------------------------------------------
# Closed-form single-generator conjugation e^{-theta A} E_i e^{theta A}.
#
# Per-generator scratch caches hold, for every Hamiltonian key met so far, the
# theta-independent commutator structure; repeated generators (angle merging,
# stochastic re-picks) then reduce the transform to dictionary merges.
# ---------------------------------------------------------------------------

_GEN_CACHE_MAX = 32
_GEN_CACHES: "OrderedDict[tuple[Key, int], dict]" = OrderedDict()
_MISSING = object()


def _gen_cache(gen: FermionGenerator) -> dict:
    gid = (gen.excitation, gen.sign)
    cache = _GEN_CACHES.get(gid)
    if cache is None:
        cache = {
            "gkey": gen.excitation,
            "gsign": gen.sign,
            "support": key_support(gen.excitation),
            "comm": {},
            "struct": {},
        }
        _GEN_CACHES[gid] = cache
        if len(_GEN_CACHES) > _GEN_CACHE_MAX:
            _GEN_CACHES.popitem(last=False)
    else:
        _GEN_CACHES.move_to_end(gid)
    return cache


def _comm_with_gen(key: Key, cache: dict) -> tuple[tuple[Key, int], ...]:
    """[key, A] with A = sign (E_g - E_g+), integer coefficients."""
    hit = cache["comm"].get(key)
    if hit is not None:
        return hit
    g = cache["gkey"]
    gd = conjugate_key(g)
    s = cache["gsign"]
    acc: dict[Key, int] = {}
    for kk, c in term_product(key, g):
        acc[kk] = acc.get(kk, 0) + c
    for kk, c in term_product(g, key):
        acc[kk] = acc.get(kk, 0) - c
    for kk, c in term_product(key, gd):
        acc[kk] = acc.get(kk, 0) - c
    for kk, c in term_product(gd, key):
        acc[kk] = acc.get(kk, 0) + c
    hit = tuple((k, s * c) for k, c in acc.items() if c)
    cache["comm"][key] = hit
    return hit


def _bch_structure(key: Key, cache: dict):
    """(linear_case, [E,A], [[E,A],A]) for one key, or None if [E,A] = 0.

    ``linear_case`` picks the closed form from how E's indices overlap the
    generator support R = P u Q (P its creation, Q its annihilation
    indices).  A rotates only the determinants whose R-bits
    read Q occupied, P empty, or the reverse; on all others it vanishes.  E
    flips exactly the R-bits in F = (cre mask ^ ann mask) & R.  With F = 0 or
    F = R, E maps rotating determinants to rotating ones (and inert to inert),
    so A [E,A] A != 0 and the double-angle form holds.  With any other F, E
    maps rotating determinants to inert ones and back, so A [E,A] A = 0 and
    the sin / (1 - cos) form holds.
    """
    struct = cache["struct"].get(key, _MISSING)
    if struct is not _MISSING:
        return struct
    if key_support(key) & cache["support"] == 0:
        cache["struct"][key] = None
        return None
    c1 = _comm_with_gen(key, cache)
    if not c1:
        struct = None
    else:
        acc2: dict[Key, int] = {}
        for k, c in c1:
            for kk, cc in _comm_with_gen(k, cache):
                acc2[kk] = acc2.get(kk, 0) + c * cc
        c2 = tuple((k, c) for k, c in acc2.items() if c)
        support = cache["support"]
        flip = (_mask(key[0]) ^ _mask(key[1])) & support
        struct = (flip not in (0, support), c1, c2)
    cache["struct"][key] = struct
    return struct


def bch_transform(op: FermionOperator, gen: FermionGenerator, theta: float,
                  floor: float = ZERO_FLOOR) -> FermionOperator:
    """Exact e^{-theta A} H e^{theta A}, term by term.

    Keys commuting with A pass through unchanged.  When E flips some but not
    all of the generator's indices (see ``_bch_structure``), A [E,A] A = 0 and
    the conjugation closes as

        E + sin(theta) [E,A] + (1 - cos(theta)) [[E,A],A]

    and when it flips none or all of them, as

        E + sin(2 theta)/2 [E,A] + sin^2(theta)/2 [[E,A],A].
    """
    if theta == 0.0:
        return op.copy()
    cache = _gen_cache(gen)
    lin_s, lin_c = math.sin(theta), 1.0 - math.cos(theta)
    gen_s, gen_c = 0.5 * math.sin(2.0 * theta), 0.5 * math.sin(theta) ** 2
    out: dict[Key, float] = {}
    constant = op.constant
    for key, h in op.terms.items():
        out[key] = out.get(key, 0.0) + h
        struct = _bch_structure(key, cache)
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
    constant += out.pop(IDENTITY_KEY, 0.0)
    return FermionOperator(out, constant).pruned(floor)

