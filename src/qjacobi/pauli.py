"""Pauli-string algebra over symplectic (x_mask, z_mask) bitmask pairs.

A string is encoded per qubit as i^(x.z) X^x Z^z, so (0,0)=I, (1,0)=X,
(0,1)=Z and (1,1)=Y.  Multiplication tracks the exact phase in {1,i,-1,-i}.

A PauliOperator holds term-ordered arrays (``x``, ``z`` uint64 masks and
complex ``coeffs``); conjugation, the per-determinant action and truncation are
numpy passes over them.  Each product there has a unit-phase, real or purely
imaginary factor, so each component is rounded once; outputs sum their
contributions in term order from 0.0 and keep a term-by-term dict loop's
insertion order, so results are bit-identical to that loop's.  The action
merges equal keys by a sort; conjugation pairs each string with its partner.
Every ``np.lexsort`` order in the package comes from ``_lexsort``'s value sort.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ZERO_FLOOR = 1e-14  # exact-arithmetic dust, for both operator algebras

PKey = tuple[int, int]
PAULI_IDENTITY: PKey = (0, 0)

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_PHASE_TABLE = np.array(_PHASES)
_CHARS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def pauli_weight(key: PKey) -> int:
    return (key[0] | key[1]).bit_count()


def pauli_multiply(p: PKey, q: PKey) -> tuple[PKey, complex]:
    """Symplectic product with exact phase; associative by construction."""
    x1, z1 = p
    x2, z2 = q
    x3, z3 = x1 ^ x2, z1 ^ z2
    e = ((x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
         + 2 * (z1 & x2).bit_count()) & 3
    return (x3, z3), _PHASES[e]


def pauli_label(key: PKey, n_qubits: int) -> str:
    """Character per qubit, qubit 0 leftmost."""
    x, z = key
    return "".join(_CHARS[(x >> q & 1, z >> q & 1)] for q in range(n_qubits))


def _lexsort(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """``np.lexsort(keys[::-1])`` for uint64 keys, ``keys[0]`` first: one value
    sort of ``keys << b | index`` where the bits used fit in 64 (the index
    makes every value distinct, so no stability is needed), else lexsort."""
    n = keys[0].size
    b = n.bit_length()
    widths = [int(np.bitwise_or.reduce(k)).bit_length() for k in keys]
    if sum(widths) + b > 64:
        return np.lexsort(keys[::-1])
    packed = keys[0]
    for k, w in zip((*keys[1:], np.arange(n, dtype=np.uint64)), (*widths[1:], b)):
        packed = packed << np.uint64(w) | k
    packed.sort()
    return (packed & np.uint64((1 << b) - 1)).astype(np.intp)


def _merge_first_seen(keys: tuple[np.ndarray, ...], vals: np.ndarray):
    """Sum the values of equal keys in sequence order.

    Returns the distinct keys and their sums, ordered by first occurrence, as
    a dict filled in sequence order would hold them.
    """
    order = _lexsort(keys)  # stable: equal keys keep sequence order
    head = np.zeros(order.size, dtype=bool)
    head[:1] = True
    for k in keys:
        ks = k[order]
        head[1:] |= ks[1:] != ks[:-1]
    sums = np.zeros(np.count_nonzero(head), dtype=vals.dtype)
    np.add.at(sums, np.cumsum(head) - 1, vals[order])
    firsts = order[head]
    rank = np.argsort(firsts)
    return tuple(k[firsts[rank]] for k in keys), sums[rank]


class TermsView(Mapping):
    """Read-only ``{key: coeff}`` view of an array-backed operator, in term order.

    ``len`` reads the array size; iteration and lookups build a dict from the
    operator's ``_keys`` on first use.
    """

    def __init__(self, op):
        self._op = op

    def __len__(self) -> int:
        return self._op.coeffs.size

    def __iter__(self):
        return iter(self._dict)

    def __getitem__(self, key):
        return self._dict[key]

    def __repr__(self) -> str:
        return f"TermsView({self._dict!r})"

    @cached_property
    def _dict(self) -> dict:
        return dict(zip(self._op._keys(), self._op.coeffs.tolist()))


class PauliOperator:
    """Weighted sum of distinct Pauli strings, held as read-only term-ordered
    arrays ``x``, ``z`` (uint64 masks) and ``coeffs`` (complex)."""

    def __init__(self, terms: Mapping[PKey, complex] | None = None):
        terms = terms or {}
        n = len(terms)
        self._set(np.fromiter((k[0] for k in terms), np.uint64, n),
                  np.fromiter((k[1] for k in terms), np.uint64, n),
                  np.fromiter(terms.values(), complex, n))

    @classmethod
    def from_arrays(cls, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> "PauliOperator":
        """An operator over the given arrays; the strings must be distinct."""
        op = cls.__new__(cls)
        op._set(x, z, coeffs)
        return op

    def _set(self, x, z, coeffs) -> None:
        for a in (x, z, coeffs):
            a.setflags(write=False)
        self.x, self.z, self.coeffs = x, z, coeffs

    def _keys(self):
        return zip(self.x.tolist(), self.z.tolist())

    @cached_property
    def terms(self) -> TermsView:
        return TermsView(self)

    def identity_mask(self) -> np.ndarray:
        return (self.x | self.z) == 0

    def magnitudes(self) -> np.ndarray:
        """|coeff| per string, computed as Python's ``abs(complex)`` does."""
        return np.hypot(self.coeffs.real, self.coeffs.imag)

    def term_count(self) -> int:
        """Number of non-identity strings."""
        return self.coeffs.size - int(np.count_nonzero(self.identity_mask()))

    def subset(self, keep: np.ndarray) -> "PauliOperator":
        """The strings where ``keep`` holds, in term order."""
        return PauliOperator.from_arrays(self.x[keep], self.z[keep], self.coeffs[keep])

    def pruned(self) -> "PauliOperator":
        return self.subset(self.magnitudes() > ZERO_FLOOR)

    def act(self, det: int) -> dict[int, complex]:
        """Sparse action on one determinant: {det': <det'|op|det>}.

        P|det> = i^(popcount(x & z) + 2 popcount(z & det)) |det XOR x>; the
        contributions to each det' add up in term order.
        """
        d = np.uint64(det)
        e = (np.bitwise_count(self.x & self.z) + 2 * np.bitwise_count(self.z & d)) & 3
        (targets,), sums = _merge_first_seen((self.x ^ d,), self.coeffs * _PHASE_TABLE[e])
        return dict(zip(targets.tolist(), sums.tolist()))

    def __repr__(self) -> str:
        return f"PauliOperator({self.coeffs.size} strings)"


@dataclass(frozen=True)
class PauliGenerator:
    """X-string with a single Y, mapping one computational state to another.

    x_mask covers exactly the qubits whose occupation differs between the two
    determinants; the Y sits on the lowest-index differing qubit, which keeps
    e^{i theta P} real.
    """

    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.z_mask.bit_count() != 1 or self.z_mask & ~self.x_mask:
            raise ValueError("generator must be an X-string with exactly one Y")

    @property
    def key(self) -> PKey:
        return (self.x_mask, self.z_mask)

    @classmethod
    def from_determinants(cls, reference: int, target: int) -> "PauliGenerator":
        if reference == target:
            raise ValueError("target determinant equals the reference")
        if reference.bit_count() != target.bit_count():
            raise ValueError("determinants differ in particle number")
        diff = reference ^ target
        return cls(diff, diff & -diff)


def bch_transform_pauli(op: PauliOperator, gen: PauliGenerator, theta: float) -> PauliOperator:
    """Closed-form e^{-i theta P_g} H e^{i theta P_g}, term by term.

    Commuting strings pass through; anticommuting ones rotate as
    cos(2 theta) P + i sin(2 theta) P P_g.  The partner P P_g anticommutes with
    P_g too, and distinct strings have distinct partners, so an output string
    gets at most two contributions, and one rounded addition of two values is
    the same in either order.  Pairing each string with its partner in ``op``
    then gives the dict loop's output order without a merge.  Each sum starts
    from 0.0 as the loop's does, which turns a -0.0 component into +0.0.
    """
    if theta == 0.0:
        return op
    gx, gz = np.uint64(gen.x_mask), np.uint64(gen.z_mask)
    cos2 = math.cos(2.0 * theta)
    isin2 = 1j * math.sin(2.0 * theta)
    x, z, h = op.x, op.z, op.coeffs
    px, pz = x ^ gx, z ^ gz
    anti = ((np.bitwise_count(x & gz) + np.bitwise_count(z & gx)) & 1).astype(bool)
    # pauli_multiply's phase exponent; uint8 wrap-around keeps it mod 4
    e = (np.bitwise_count(x & z) + np.bitwise_count(gx & gz) - np.bitwise_count(px & pz)
         + 2 * np.bitwise_count(z & gx)) & 3
    own, new = np.where(anti, h * cos2, h), h * isin2 * _PHASE_TABLE[e]
    # K and K g share the member whose x has the Y bit clear: a stable sort on
    # it puts each pair of anticommuting strings side by side, earlier first
    ia = np.flatnonzero(anti)
    flip = (x[ia] & gz) != 0
    cx, cz = np.where(flip, px[ia], x[ia]), np.where(flip, pz[ia], z[ia])
    order = _lexsort((cx, cz))
    tie = np.flatnonzero((np.diff(cx[order]) == 0) & (np.diff(cz[order]) == 0))
    first, later = ia[order[tie]], ia[order[tie + 1]]
    # a dict loop's sequence: each string, then its partner; a pair's later
    # member adds into the earlier's two entries and emits none of its own
    vals = 0.0 + np.stack((own, new), axis=1)
    vals[first] += np.stack((new[later], own[later]), axis=1)
    emit = np.stack((np.ones_like(anti), anti), axis=1)
    emit[later] = False
    emit = np.flatnonzero(emit)
    keys = (np.stack(pair, axis=1).ravel()[emit] for pair in ((x, px), (z, pz)))
    return PauliOperator.from_arrays(*keys, vals.ravel()[emit]).pruned()
