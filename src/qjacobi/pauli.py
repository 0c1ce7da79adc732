"""Pauli-string algebra over symplectic (x_mask, z_mask) bitmask pairs.

A string is encoded per qubit as i^(x.z) X^x Z^z, so (0,0)=I, (1,0)=X,
(0,1)=Z and (1,1)=Y.  Multiplication tracks the exact phase in {1,i,-1,-i}.

A PauliOperator holds term-ordered arrays (``x``, ``z`` uint64 masks and
complex ``coeffs``); conjugation, the per-determinant action and truncation are
numpy passes over them.  Each product there has a unit-phase, real or purely
imaginary factor, so each component is rounded once; outputs sum their
contributions in term order and keep a term-by-term dict loop's insertion
order, so results are bit-identical to that loop's.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ZERO_FLOOR = 1e-14

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


def _merge_first_seen(keys: tuple[np.ndarray, ...], vals: np.ndarray):
    """Sum the values of equal keys in sequence order.

    Returns the distinct keys and their sums, ordered by first occurrence, as
    a dict filled in sequence order would hold them.
    """
    order = np.lexsort(keys[::-1])  # stable: equal keys keep sequence order
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


class PauliTerms(Mapping):
    """Read-only ``{(x, z): coeff}`` view of a PauliOperator, in term order.

    ``len`` reads the array size; lookups build a dict on first use.
    """

    def __init__(self, op: "PauliOperator"):
        self._op = op

    def __len__(self) -> int:
        return self._op.coeffs.size

    def __iter__(self):
        return zip(self._op.x.tolist(), self._op.z.tolist())

    def __getitem__(self, key: PKey) -> complex:
        return self._dict[key]

    @cached_property
    def _dict(self) -> dict[PKey, complex]:
        return dict(zip(self, self._op.coeffs.tolist()))


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

    @cached_property
    def terms(self) -> PauliTerms:
        return PauliTerms(self)

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

    def pruned(self, floor: float = ZERO_FLOOR) -> "PauliOperator":
        return self.subset(self.magnitudes() > floor)

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

    def weight(self) -> int:
        return self.x_mask.bit_count()

    @classmethod
    def from_determinants(cls, reference: int, target: int) -> "PauliGenerator":
        if reference == target:
            raise ValueError("target determinant equals the reference")
        if reference.bit_count() != target.bit_count():
            raise ValueError("determinants differ in particle number")
        diff = reference ^ target
        return cls(diff, diff & -diff)


def bch_transform_pauli(op: PauliOperator, gen: PauliGenerator, theta: float,
                        floor: float = ZERO_FLOOR) -> PauliOperator:
    """Closed-form e^{-i theta P_g} H e^{i theta P_g}, term by term.

    Commuting strings pass through; anticommuting ones rotate as
    cos(2 theta) P + i sin(2 theta) P P_g.  The partner P P_g anticommutes with
    P_g too, so an output string gets at most two contributions.
    """
    if theta == 0.0:
        return op
    gx, gz = np.uint64(gen.x_mask), np.uint64(gen.z_mask)
    cos2 = math.cos(2.0 * theta)
    isin2 = 1j * math.sin(2.0 * theta)
    x, z, h = op.x, op.z, op.coeffs
    anti = ((np.bitwise_count(x & gz) + np.bitwise_count(z & gx)) & 1).astype(bool)
    xa, za, ha = x[anti], z[anti], h[anti]
    px, pz = xa ^ gx, za ^ gz
    # pauli_multiply's phase exponent; uint8 wrap-around keeps it mod 4
    e = (np.bitwise_count(xa & za) + np.bitwise_count(gx & gz) - np.bitwise_count(px & pz)
         + 2 * np.bitwise_count(za & gx)) & 3
    own = h.copy()
    own[anti] = ha * cos2
    # the sequence a dict loop would see: each string, then its partner
    slot = np.arange(h.size) + np.cumsum(anti) - anti
    size = h.size + xa.size
    seq = [np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, complex)]
    for arr, mine, partner in zip(seq, (x, z, own), (px, pz, ha * isin2 * _PHASE_TABLE[e])):
        arr[slot] = mine
        arr[slot[anti] + 1] = partner
    (x, z), coeffs = _merge_first_seen((seq[0], seq[1]), seq[2])
    return PauliOperator.from_arrays(x, z, coeffs).pruned(floor)
