"""Brute-force ground truth: determinant bases, the FCI matrix, exact eigensolve.

A basis is a sector of ``statevector.sector_dets`` and the FCI matrix holds
the entries of ``statevector.operator_entries``, both as the device has them.
The matrix is real, so it is built and diagonalised in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import MolecularProblem
from .statevector import Sector, operator_entries, sector_dets

_HERM_TOL = 1e-10


@dataclass(frozen=True)
class DeterminantBasis:
    """Determinants in strictly ascending order, as bitstrings."""

    determinants: tuple[int, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.determinants, self.determinants[1:])):
            raise ValueError("determinants must be strictly ascending")

    @classmethod
    def build(cls, n_qubits: int, n_electrons: int, sz: float | None = None) -> "DeterminantBasis":
        """The basis of ``n_electrons``, with n_alpha - n_beta = 2 ``sz`` if given."""
        n_alpha = None
        if sz is not None:
            twice_sz = round(2 * sz)
            if (n_electrons + twice_sz) % 2 or abs(twice_sz) > n_electrons:
                raise ValueError("sz incompatible with electron count")
            n_alpha = (n_electrons + twice_sz) // 2
        return cls(tuple(sector_dets(Sector(n_qubits, n_electrons, n_alpha)).tolist()))


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix by dense symmetric eigensolve.

    The eigenvector is normalized with its largest-magnitude entry made real
    positive.
    """
    dev = np.max(np.abs(matrix - matrix.conj().T))
    if dev > _HERM_TOL:
        raise ValueError(f"matrix not Hermitian (max deviation {dev:.3e})")
    vals, vecs = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    vec = vecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    vec = vec * phase.conjugate()
    return float(vals[0]), vec


def fci_matrix(op, basis: DeterminantBasis) -> np.ndarray:
    """<nu| op |mu> over ``basis`` in float64, from the FermionOperator ``op``.

    The constant goes on the diagonal first, then the compiled entries add in
    term order, as ``FermionOperator.act`` sums them; entries whose row lies
    outside the basis are dropped (the sector projection).
    """
    matrix = np.diag(np.full(len(basis.determinants), op.constant))
    rows, cols, vals = operator_entries(op, np.array(basis.determinants, dtype=np.uint64))
    np.add.at(matrix, (rows, cols), vals)
    return matrix


def fci_ground_state(problem: MolecularProblem, sz: float | None = 0.0):
    """FCI energy and vector of a molecular problem in its particle sector."""
    basis = DeterminantBasis.build(problem.n_qubits, problem.n_electrons, sz)
    if not basis.determinants:
        raise ValueError(f"no determinant of {problem.n_electrons} electrons at sz={sz}")
    energy, vec = ground_state(fci_matrix(problem.hamiltonian, basis))
    return energy, vec, basis
