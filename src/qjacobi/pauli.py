"""Pauli-string algebra over symplectic (x_mask, z_mask) bitmask pairs.

A string is encoded per qubit as i^(x.z) X^x Z^z, so (0,0)=I, (1,0)=X,
(0,1)=Z and (1,1)=Y.  Multiplication tracks the exact phase in {1,i,-1,-i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ZERO_FLOOR = 1e-14

PKey = tuple[int, int]
PAULI_IDENTITY: PKey = (0, 0)

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
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


def paulis_commute(p: PKey, q: PKey) -> bool:
    """[p, q] = 0 iff the symplectic form of the masks is even."""
    return ((p[0] & q[1]).bit_count() + (p[1] & q[0]).bit_count()) & 1 == 0


def pauli_action_on_det(key: PKey, det: int) -> tuple[complex, int]:
    """P|det> = phase |det XOR x>."""
    x, z = key
    phase = _PHASES[((x & z).bit_count() + 2 * (z & det).bit_count()) & 3]
    return phase, det ^ x


def pauli_label(key: PKey, n_qubits: int) -> str:
    """Character per qubit, qubit 0 leftmost."""
    x, z = key
    return "".join(_CHARS[(x >> q & 1, z >> q & 1)] for q in range(n_qubits))


class PauliOperator:
    """Weighted sum of Pauli strings; coefficients kept complex internally."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PKey, complex] | None = None):
        self.terms: dict[PKey, complex] = dict(terms) if terms else {}

    @classmethod
    def zero(cls) -> "PauliOperator":
        return cls()

    @classmethod
    def identity(cls, coefficient: complex = 1.0) -> "PauliOperator":
        return cls({PAULI_IDENTITY: coefficient})

    def term_count(self) -> int:
        """Number of non-identity strings."""
        return len(self.terms) - (1 if PAULI_IDENTITY in self.terms else 0)

    @property
    def constant(self) -> complex:
        return self.terms.get(PAULI_IDENTITY, 0.0 + 0.0j)

    def copy(self) -> "PauliOperator":
        return PauliOperator(self.terms)

    def scaled(self, factor: complex) -> "PauliOperator":
        return PauliOperator({k: factor * c for k, c in self.terms.items()})

    def plus(self, other: "PauliOperator") -> "PauliOperator":
        out = self.copy()
        t = out.terms
        for k, c in other.terms.items():
            t[k] = t.get(k, 0.0) + c
        return out.pruned()

    def pruned(self, floor: float = ZERO_FLOOR) -> "PauliOperator":
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > floor}
        return self

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def max_abs_imag(self) -> float:
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)

    def act(self, det: int) -> dict[int, complex]:
        """Sparse action on one determinant: {det': <det'|op|det>}, term order."""
        out: dict[int, complex] = {}
        for key, coeff in self.terms.items():
            phase, d2 = pauli_action_on_det(key, det)
            out[d2] = out.get(d2, 0.0) + coeff * phase
        return out

    def __repr__(self) -> str:
        return f"PauliOperator({len(self.terms)} strings)"


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
    cos(2 theta) P + i sin(2 theta) P P_g.
    """
    if theta == 0.0:
        return op.copy()
    g = gen.key
    cos2 = math.cos(2.0 * theta)
    isin2 = 1j * math.sin(2.0 * theta)
    out: dict[PKey, complex] = {}
    for key, h in op.terms.items():
        if paulis_commute(key, g):
            out[key] = out.get(key, 0.0) + h
            continue
        prod, phase = pauli_multiply(key, g)
        out[key] = out.get(key, 0.0) + h * cos2
        out[prod] = out.get(prod, 0.0) + h * isin2 * phase
    return PauliOperator(out).pruned(floor)
