"""Normal-ordered fermionic operator algebra.

A term is stored under a canonical key ``(creations, annihilations)`` where
both index tuples are strictly increasing and the key stands for the operator
string ``a+_{p1} .. a+_{pn} a_{qn} .. a_{q1}`` (annihilations written in
descending index order).  Any permutation met while reordering products is
folded into the coefficient through fermionic parity, so every operator has a
unique representation.

Only particle-number conserving terms are representable; everything produced
by products and commutators of such terms stays in this class.

A FermionOperator holds term-ordered arrays: uint64 creation and annihilation
masks ``cre``/``ann``, float64 ``coeffs``, plus a ``constant``.  Conjugation,
cumulant compression, truncation and the per-determinant action are numpy
passes over them.  Every output value is formed with the roundings of a
term-by-term dict loop, and outputs sum their contributions in that loop's
order and keep its insertion order (``pauli._merge_first_seen``, over the
stable key order of ``pauli._lexsort``), so results are bit-identical to it.

``term_action`` is the one Jordan-Wigner sign of a canonical term on a
determinant: the residual, the diagonal, the FCI matrix, the generators and
the device's signed maps and compiled Hamiltonian all use it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .pauli import ZERO_FLOOR, TermsView, _lexsort, _merge_first_seen

MAX_MODES = 64  # masks are uint64

Key = tuple[tuple[int, ...], tuple[int, ...]]


def conjugate_key(key: Key) -> Key:
    """Key of the Hermitian conjugate; the canonical form carries no sign."""
    cre, ann = key
    return (ann, cre)


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for q in indices:
        mask |= 1 << q
    return mask


def _uint64(masks: list[int]) -> np.ndarray:
    """``masks`` as a uint64 array; ValueError for a mode beyond MAX_MODES."""
    if max(masks, default=0) >> MAX_MODES:
        raise ValueError(f"fermionic operators support at most {MAX_MODES} modes")
    return np.array(masks, dtype=np.uint64)


def _indices(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of ``mask``."""
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


def _below_parity(masks: np.ndarray) -> np.ndarray:
    """Bit p set where ``masks`` has an odd number of set bits below p."""
    x = masks << np.uint64(1)
    for shift in (1, 2, 4, 8, 16, 32):
        x ^= x << np.uint64(shift)
    return x


def term_action(cre, ann, dets):
    """Canonical terms E (creation masks ``cre``, annihilation masks ``ann``)
    on determinants ``dets``, all uint64 and broadcasting: ``(hit, target,
    odd)`` with E|d> = (-1)^odd |target> where ``hit`` holds, else E|d> = 0.

    The operators act one by one, a_{q1} first, each signed by the occupied
    modes below its index (Jordan-Wigner).  The parity is the number of
    (creation, annihilation) pairs with the annihilation below, plus k(k-1)/2
    for k annihilations, plus the occupied modes of d below each index E flips.
    """
    hit = ((ann & ~dets) == 0) & ((cre & dets & ~ann) == 0)
    odd = (np.bitwise_count(cre & _below_parity(ann)) + (np.bitwise_count(ann) >> 1)
           + np.bitwise_count((cre ^ ann) & _below_parity(dets))) & 1
    return hit, (dets & ~ann) | cre, odd


def key_support(key: Key) -> int:
    return _mask(key[0]) | _mask(key[1])


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


class FermionOperator:
    """Real linear combination of canonical excitation terms plus a constant,
    held as read-only term-ordered arrays ``cre``, ``ann`` (uint64 masks) and
    ``coeffs`` (float64); the keys are distinct and the identity is the
    ``constant``."""

    def __init__(self, terms: Mapping[Key, float] | None = None, constant: float = 0.0):
        terms = terms or {}
        masks = [_mask(k[0]) for k in terms] + [_mask(k[1]) for k in terms]
        cre, ann = _uint64(masks).reshape(2, len(terms))
        self._set(cre, ann, np.fromiter(terms.values(), float, len(terms)), constant)

    @classmethod
    def from_arrays(cls, cre: np.ndarray, ann: np.ndarray, coeffs: np.ndarray,
                    constant: float = 0.0) -> "FermionOperator":
        """An operator over the given arrays; the keys must be distinct."""
        op = cls.__new__(cls)
        op._set(cre, ann, coeffs, constant)
        return op

    def _set(self, cre, ann, coeffs, constant) -> None:
        for a in (cre, ann, coeffs):
            a.setflags(write=False)
        self.cre, self.ann, self.coeffs = cre, ann, coeffs
        self.constant = float(constant)

    def _keys(self):
        return zip(map(_indices, self.cre.tolist()), map(_indices, self.ann.tolist()))

    @cached_property
    def terms(self) -> TermsView:
        return TermsView(self)

    def term_count(self) -> int:
        """Number of stored keys; the identity constant is not counted."""
        return self.coeffs.size

    def subset(self, keep: np.ndarray) -> "FermionOperator":
        """The terms where ``keep`` holds, in term order, and the constant."""
        return FermionOperator.from_arrays(self.cre[keep], self.ann[keep], self.coeffs[keep],
                                           self.constant)

    def pruned(self) -> "FermionOperator":
        """Drop exact-arithmetic dust at or below ZERO_FLOOR, the constant too."""
        out = self.subset(np.abs(self.coeffs) > ZERO_FLOOR)
        if abs(out.constant) <= ZERO_FLOOR:
            out.constant = 0.0
        return out

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        """Whether every coefficient is within ``tol`` of its conjugate key's
        (0 when absent): each key's sum of +coeffs and, under the swapped
        masks, -coeffs, merged in one pass."""
        _, diffs = _merge_first_seen((np.concatenate((self.cre, self.ann)),
                                      np.concatenate((self.ann, self.cre))),
                                     np.concatenate((self.coeffs, -self.coeffs)))
        return not np.any(np.abs(diffs) > tol)

    def act(self, det: int) -> dict[int, float]:
        """Sparse action on one determinant: {det': <det'|op|det>}.

        The constant is entered at ``det`` first, then every term that does
        not kill ``det`` adds its coefficient in term order, signed by
        ``term_action``.
        """
        d = np.uint64(det)
        hit, targets, odd = term_action(self.cre, self.ann, d)
        coeffs = self.coeffs[hit]
        (targets,), sums = _merge_first_seen(
            (np.concatenate(([d], targets[hit])),),
            np.concatenate(([self.constant], np.where(odd[hit], -coeffs, coeffs))))
        return dict(zip(targets.tolist(), sums.tolist()))

    def __repr__(self) -> str:
        return f"FermionOperator({self.term_count()} terms, constant={self.constant:+.6g})"


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
        if max(cre + ann) >= MAX_MODES:
            raise ValueError(f"fermionic operators support at most {MAX_MODES} modes")
        if self.sign not in (-1, 1):
            raise ValueError("generator sign must be +1 or -1")

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
        cre, ann = diff & target, diff & reference
        _, _, odd = term_action(*_uint64([cre, ann, reference]))
        return cls((_indices(cre), _indices(ann)), -1 if odd else 1)


# ---------------------------------------------------------------------------
# Closed-form single-generator conjugation e^{-theta A} E_i e^{theta A}, with
# R-local commutators read from tables built once per R-pattern and shape.
# ---------------------------------------------------------------------------

def _shape(gen: FermionGenerator) -> tuple[tuple[int, ...], dict]:
    """The generator's support R in ascending order, and its shape's table.

    Generators whose creations sit at the same positions within R share one
    table, built for sign +1 on the canonical support 0..|R|-1: the Wick
    algebra only compares indices, so an order-preserving relabeling maps its
    outputs one to one and in the same order, and the sign scales [E,A] and
    leaves [[E,A],A].
    """
    modes = _indices(key_support(gen.excitation))
    cre = gen.excitation[0]
    return modes, _shape_table(len(modes), sum(1 << k for k, q in enumerate(modes) if q in cre))


@lru_cache(maxsize=64)
def _shape_table(size: int, cre_positions: int) -> dict:
    """The pattern table of one shape, filled as patterns are met."""
    cre = _indices(cre_positions)
    ann = tuple(k for k in range(size) if k not in cre)
    return {"gkey": (cre, ann), "gmasks": (_mask(cre), _mask(ann)), "support": (1 << size) - 1,
            "ids": {}, "patterns": [], "rows": []}


def _relabel(masks: np.ndarray, src: Iterable[int], dst: Iterable[int]) -> np.ndarray:
    """Masks with bit src[k] moved to bit dst[k]; other bits dropped."""
    out = np.zeros_like(masks)
    for a, b in zip(src, dst):
        out |= ((masks >> np.uint64(a)) & np.uint64(1)) << np.uint64(b)
    return out


def _comm_with_gen(key: Key, cache: dict) -> tuple[tuple[Key, int], ...]:
    """[key, A] with A = E_g - E_g+ for an R-local key, integer coefficients;
    tables are built for sign +1 and ``bch_transform`` applies the sign.  A
    maps only between the R-configurations "P occupied" and "Q occupied"; a
    key that neither acts on nor lands in either has key A = A key = 0, and
    no Wick algebra runs."""
    cre, ann = _mask(key[0]), _mask(key[1])
    if not any((ann & ~x) == 0 and not cre & x & ~ann or (cre & ~x) == 0 and not ann & x & ~cre
               for x in cache["gmasks"]):
        return ()
    g = cache["gkey"]
    gd = conjugate_key(g)
    acc: dict[Key, int] = {}
    for left, right, sign in ((key, g, 1), (g, key, -1), (key, gd, -1), (gd, key, 1)):
        for kk, c in term_product(left, right):
            acc[kk] = acc.get(kk, 0) + sign * c
    return tuple((k, c) for k, c in acc.items() if c)


def _pattern_entry(cre_r: int, ann_r: int, cache: dict):
    """Table entry of one R-pattern: (linear_case, c1, c2), or None if E_R
    commutes with A.

    c1 = [E_R,A] and c2 = [[E_R,A],A] list R-local terms as
    ``(cre_mask, ann_mask, int coeff)``, in the Wick algebra's output order.
    """
    c1 = _comm_with_gen((_indices(cre_r), _indices(ann_r)), cache)
    if not c1:
        return None
    acc2: dict[Key, int] = {}
    for k, c in c1:
        for kk, cc in _comm_with_gen(k, cache):
            acc2[kk] = acc2.get(kk, 0) + c * cc
    flip = cre_r ^ ann_r
    return (flip not in (0, cache["support"]),
            tuple((_mask(k[0]), _mask(k[1]), c) for k, c in c1),
            tuple((_mask(k[0]), _mask(k[1]), c) for k, c in acc2.items() if c))


def _pattern_table(patterns: list[tuple[int, int]], cache: dict):
    """Ids of ``patterns`` in a shape's table, and the table as CSR.

    Patterns not seen before are tabulated first.  The table holds per id
    ``(linear, start, length)`` and per row ``(f_cre, f_ann, coeff,
    second)``: an entry's c1 rows, then its c2 rows (``second`` set); a
    pattern commuting with A has no rows.
    """
    ids = cache["ids"]
    new = list(dict.fromkeys(p for p in patterns if p not in ids))
    if new or "arrays" not in cache:
        for p in new:
            ids[p] = len(ids)
            entry = _pattern_entry(*p, cache)
            linear, c1, c2 = entry or (False, (), ())
            cache["patterns"].append((linear, len(cache["rows"]), len(c1) + len(c2)))
            cache["rows"].extend((f_cre, f_ann, c, False) for f_cre, f_ann, c in c1)
            cache["rows"].extend((f_cre, f_ann, c, True) for f_cre, f_ann, c in c2)
        pats, rows = cache["patterns"], cache["rows"]
        cache["arrays"] = tuple(np.array([t[i] for t in table], dtype=dtype)
                                for table, i, dtype in ((pats, 0, bool), (pats, 1, np.int64),
                                                        (pats, 2, np.int64), (rows, 0, np.uint64),
                                                        (rows, 1, np.uint64), (rows, 2, float),
                                                        (rows, 3, bool)))
    return np.array([ids[p] for p in patterns], dtype=np.int64), cache["arrays"]


def bch_transform(op: FermionOperator, gen: FermionGenerator, theta: float) -> FermionOperator:
    """Exact e^{-theta A} H e^{theta A}, term by term.

    A is even and acts only on its support R = P u Q (P its creation, Q its
    annihilation indices), so with E = sigma(E) E_R E_rest, sigma the sign of
    moving the R operators to the front, [E,A] = sigma(E) [E_R,A] E_rest.
    Keys with no index in R pass through.  The others read [E_R,A] and
    [[E_R,A],A] from the table entry of their R-pattern (cre & R, ann & R),
    and each R-local output F maps to sigma(F u rest) canonical(F u rest).
    Written canonically (creations ascending, annihilations descending), a
    creation x in R moves past the rest creations below x, an annihilation x
    in R past the rest annihilations above x and every rest creation; with
    bit x of ``cre_odd`` (``ann_odd``) set when that count is odd, sigma of
    R-local (cre_r, ann_r) has the parity of popcount(cre_r & cre_odd) +
    popcount(ann_r & ann_odd).

    The closed form is picked from how E's indices overlap R.  A rotates only
    the determinants whose R-bits read Q occupied, P empty, or the reverse.
    E flips exactly the R-bits in F = (cre mask ^ ann mask) & R.  With F = 0
    or F = R, E maps rotating determinants to rotating ones, and

        E + sin(2 theta)/2 [E,A] + sin^2(theta)/2 [[E,A],A];

    with any other F, E maps rotating determinants to inert ones and back, so
    A [E,A] A = 0 and

        E + sin(theta) [E,A] + (1 - cos(theta)) [[E,A],A].

    Each output sums, in term order, the key itself, then its [E,A] rows with
    (h * s) * c, then its [[E,A],A] rows with (h * c') * c.
    """
    if theta == 0.0:
        return op
    modes, table = _shape(gen)
    canonical = range(len(modes))
    support = np.uint64(key_support(gen.excitation))
    cre, ann, h = op.cre, op.ann, op.coeffs
    touched = np.flatnonzero(((cre | ann) & support) != 0)
    # group the touched keys by R-pattern, in canonical positions
    cre_r, ann_r = (_relabel(m[touched], modes, canonical) for m in (cre, ann))
    order = _lexsort((cre_r, ann_r))
    head = np.ones(order.size, dtype=bool)
    head[1:] = (np.diff(cre_r[order]) != 0) | (np.diff(ann_r[order]) != 0)
    which = np.empty(order.size, dtype=np.int64)
    which[order] = np.cumsum(head) - 1
    ids, (linear, start, length, f_cre, f_ann, coeff, second) = _pattern_table(
        list(zip(cre_r[order][head].tolist(), ann_r[order][head].tolist())), table)
    which = ids[which]
    rows = length[which]
    keys = touched[rows > 0]
    which, rows = which[rows > 0], rows[rows > 0]

    cre_r, ann_r = cre[keys] & support, ann[keys] & support
    cre_rest, ann_rest = cre[keys] ^ cre_r, ann[keys] ^ ann_r
    cre_odd = _below_parity(cre_rest) & support
    flip_all = (np.bitwise_count(cre_rest) + np.bitwise_count(ann_rest)) & 1
    ann_odd = (_below_parity(ann_rest) & support) ^ np.where(flip_all, support, np.uint64(0))
    parity = np.bitwise_count(cre_r & cre_odd) + np.bitwise_count(ann_r & ann_odd)
    lin = linear[which]
    hfs = h[keys] * np.where(lin, math.sin(theta), 0.5 * math.sin(2.0 * theta))
    hfc = h[keys] * np.where(lin, 1.0 - math.cos(theta), 0.5 * math.sin(theta) ** 2)

    # row r belongs to key owner[r] and reads table row src[r]
    owner = np.repeat(np.arange(keys.size), rows)
    local = np.arange(owner.size) - np.repeat(np.cumsum(rows) - rows, rows)
    src = start[which][owner] + local
    f_cre, f_ann = (_relabel(m[src], canonical, modes) for m in (f_cre, f_ann))
    cre_odd, ann_odd = cre_odd[owner], ann_odd[owner]
    row_parity = (parity[owner] + np.bitwise_count(f_cre & cre_odd)
                  + np.bitwise_count(f_ann & ann_odd))
    c = coeff[src] * np.where(second[src], 1.0, float(gen.sign))
    c = np.where(row_parity & 1, -c, c)
    row_vals = np.where(second[src], hfc[owner], hfs[owner]) * c

    # the sequence a dict loop would see: each key, then its rows
    count = np.ones(h.size, dtype=np.int64)
    count[keys] += rows
    slot = np.cumsum(count) - count
    size = h.size + owner.size
    pos = slot[keys][owner] + 1 + local
    seq = [np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size)]
    for arr, mine, theirs in zip(seq, (cre, ann, h), (f_cre | cre_rest[owner],
                                                      f_ann | ann_rest[owner], row_vals)):
        arr[slot] = mine
        arr[pos] = theirs
    (cre, ann), coeffs = _merge_first_seen((seq[0], seq[1]), seq[2])
    return FermionOperator.from_arrays(cre, ann, coeffs, op.constant).pruned()
