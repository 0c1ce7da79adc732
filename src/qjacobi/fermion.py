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
    target determinant with amplitude +1.  Disjoint creation and annihilation
    indices make A^3 = -A hold, so construction checks only that.
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
# Each generator keeps a table from R-patterns to R-local commutators, built
# with the Wick algebra once per pattern, and a per-key memo in front of it;
# repeated generators (angle merging, stochastic re-picks) then reduce the
# transform to dictionary merges.
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
            "table": {},
            "struct": {},
        }
        _GEN_CACHES[gid] = cache
        if len(_GEN_CACHES) > _GEN_CACHE_MAX:
            _GEN_CACHES.popitem(last=False)
    else:
        _GEN_CACHES.move_to_end(gid)
    return cache


@lru_cache(maxsize=1 << 14)
def _bits(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _comm_with_gen(key: Key, cache: dict) -> tuple[tuple[Key, int], ...]:
    """[key, A] with A = sign (E_g - E_g+), integer coefficients."""
    g = cache["gkey"]
    gd = conjugate_key(g)
    acc: dict[Key, int] = {}
    for left, right, sign in ((key, g, 1), (g, key, -1), (key, gd, -1), (gd, key, 1)):
        for kk, c in term_product(left, right):
            acc[kk] = acc.get(kk, 0) + sign * c
    s = cache["gsign"]
    return tuple((k, s * c) for k, c in acc.items() if c)


def _pattern_entry(cre_r: int, ann_r: int, cache: dict):
    """Table entry of one R-pattern: (linear_case, c1, c2), or None if E_R
    commutes with A.

    c1 = [E_R,A] and c2 = [[E_R,A],A] list R-local terms as
    ``(cre_mask, ann_mask, int coeff)``, in the Wick algebra's output order.
    """
    table = cache["table"]
    entry = table.get((cre_r, ann_r), _MISSING)
    if entry is not _MISSING:
        return entry
    c1 = _comm_with_gen((_bits(cre_r), _bits(ann_r)), cache)
    if not c1:
        entry = None
    else:
        acc2: dict[Key, int] = {}
        for k, c in c1:
            for kk, cc in _comm_with_gen(k, cache):
                acc2[kk] = acc2.get(kk, 0) + c * cc
        flip = cre_r ^ ann_r
        entry = (flip not in (0, cache["support"]),
                 tuple((_mask(k[0]), _mask(k[1]), c) for k, c in c1),
                 tuple((_mask(k[0]), _mask(k[1]), c) for k, c in acc2.items() if c))
    table[(cre_r, ann_r)] = entry
    return entry


def _front_signs(support: int, cre_rest: int, ann_rest: int) -> tuple[int, int]:
    """Odd-move masks over R for keys whose operators outside R are fixed.

    A canonical key is written creations ascending, annihilations descending.
    Moving its R operators to the front (order E_R E_rest) passes, for a
    creation x in R, the rest creations below x; for an annihilation x in R,
    the rest annihilations above x and then every rest creation.  Bit x of
    the creation (annihilation) mask is set when that count is odd, so the
    sign sigma of an R-pattern (cre_r, ann_r) has the parity of
    popcount(cre_r & cre_odd) + popcount(ann_r & ann_odd).
    """
    cre_odd = ann_odd = 0
    m = support
    while m:
        low = m & -m
        if (cre_rest & (low - 1)).bit_count() & 1:
            cre_odd |= low
        if (ann_rest & -low).bit_count() & 1:  # R and rest share no bit
            ann_odd |= low
        m ^= low
    if cre_rest.bit_count() & 1:
        ann_odd ^= support
    return cre_odd, ann_odd


def _attach(local, parity: int, cre_rest: int, ann_rest: int, cre_odd: int,
            ann_odd: int) -> tuple[tuple[Key, int], ...]:
    """Canonical keys and signs of sigma(E) F_j E_rest for R-local terms F_j."""
    out = []
    for f_cre, f_ann, c in local:
        p = parity + (f_cre & cre_odd).bit_count() + (f_ann & ann_odd).bit_count()
        out.append(((_bits(f_cre | cre_rest), _bits(f_ann | ann_rest)), -c if p & 1 else c))
    return tuple(out)


def _bch_structure(key: Key, cache: dict):
    """(linear_case, [E,A], [[E,A],A]) for one key, or None if [E,A] = 0.

    A is even and acts only on its support R = P u Q (P its creation, Q its
    annihilation indices), so with E = sigma(E) E_R E_rest, sigma the sign of
    moving the R operators to the front (``_front_signs``), E_rest commutes
    with A and [E,A] = sigma(E) [E_R,A] E_rest.  [E_R,A] and [[E_R,A],A] come
    from the table entry of E's R-pattern (cre & R, ann & R); each R-local
    output F_j maps to F_j E_rest = sigma(F_j u rest) canonical(F_j u rest).

    ``linear_case`` picks the closed form from how E's indices overlap R.  A
    rotates only the determinants whose R-bits read Q occupied, P empty, or
    the reverse; on all others it vanishes.  E flips exactly the R-bits in
    F = (cre mask ^ ann mask) & R.  With F = 0 or F = R, E maps rotating
    determinants to rotating ones (and inert to inert), so A [E,A] A != 0
    and the double-angle form holds.  With any other F, E maps rotating
    determinants to inert ones and back, so A [E,A] A = 0 and the
    sin / (1 - cos) form holds.
    """
    struct = cache["struct"].get(key, _MISSING)
    if struct is not _MISSING:
        return struct
    support = cache["support"]
    cre, ann = _mask(key[0]), _mask(key[1])
    cre_r, ann_r = cre & support, ann & support
    entry = _pattern_entry(cre_r, ann_r, cache) if cre_r | ann_r else None
    if entry is None:
        struct = None
    else:
        linear_case, c1, c2 = entry
        cre_rest, ann_rest = cre ^ cre_r, ann ^ ann_r
        cre_odd, ann_odd = _front_signs(support, cre_rest, ann_rest)
        parity = (cre_r & cre_odd).bit_count() + (ann_r & ann_odd).bit_count()
        rest = (cre_rest, ann_rest, cre_odd, ann_odd)
        struct = (linear_case, _attach(c1, parity, *rest), _attach(c2, parity, *rest))
    cache["struct"][key] = struct
    return struct


def bch_transform(op: FermionOperator, gen: FermionGenerator, theta: float,
                  floor: float = ZERO_FLOOR) -> FermionOperator:
    """Exact e^{-theta A} H e^{theta A}, term by term.

    Keys commuting with A pass through unchanged.  The others read [E,A] and
    [[E,A],A] from the generator's R-pattern table (see ``_bch_structure``);
    no Wick algebra runs per key.  When E flips some but not all of the
    generator's indices, A [E,A] A = 0 and the conjugation closes as

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
