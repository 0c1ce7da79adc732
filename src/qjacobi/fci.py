"""Brute-force ground truth: determinant bases, the FCI matrix, exact eigensolve.

A basis is a ``statevector.sector_dets`` array and the FCI matrix holds the
entries of ``statevector.operator_entries``, both as the device has them.
The matrix is real, so it is built and diagonalised in float64.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import MolecularProblem
from .statevector import Sector, operator_entries, sector_dets

_SYM_TOL = 1e-10


def basis(n_qubits: int, n_electrons: int, sz: float | None = None) -> np.ndarray:
    """The read-only ascending determinants of ``n_electrons``, with n_alpha -
    n_beta = 2 ``sz`` if given."""
    n_alpha = None
    if sz is not None:
        twice_sz = round(2 * sz)
        if (n_electrons + twice_sz) % 2 or abs(twice_sz) > n_electrons:
            raise ValueError("sz incompatible with electron count")
        n_alpha = (n_electrons + twice_sz) // 2
    return sector_dets(Sector(n_qubits, n_electrons, n_alpha))


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric matrix by dense symmetric eigensolve.

    The eigenvector is normalized with its largest-magnitude entry made positive.
    """
    dev = np.max(np.abs(matrix - matrix.T))
    if dev > _SYM_TOL:
        raise ValueError(f"matrix not symmetric (max deviation {dev:.3e})")
    vals, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    vec = vecs[:, 0]
    return float(vals[0]), vec * np.sign(vec[np.argmax(np.abs(vec))])


def fci_matrix(op, dets) -> np.ndarray:
    """<nu| op |mu> in float64 over ``dets``, strictly ascending determinants,
    from the FermionOperator ``op``.

    The constant goes on the diagonal first, then the compiled entries add in
    term order, as ``FermionOperator.act`` sums them; entries whose row lies
    outside ``dets`` are dropped (the sector projection).
    """
    dets = np.asarray(dets, np.uint64)
    if np.any(dets[1:] <= dets[:-1]):  # the compile's searchsorted needs it
        raise ValueError("determinants must be strictly ascending")
    matrix = np.diag(np.full(dets.size, op.constant))
    rows, cols, vals = operator_entries(op, dets)
    np.add.at(matrix, (rows, cols), vals)
    return matrix


def fci_ground_state(problem: MolecularProblem, sz: float | None = 0.0):
    """FCI energy, vector and determinants of a molecular problem in its sector."""
    dets = basis(problem.n_qubits, problem.n_electrons, sz)
    if not dets.size:
        raise ValueError(f"no determinant of {problem.n_electrons} electrons at sz={sz}")
    energy, vec = ground_state(fci_matrix(problem.hamiltonian, dets))
    return energy, vec, dets
