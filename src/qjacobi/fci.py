"""Brute-force ground truth: determinant bases, dense matrices, exact eigensolve.

Matrix elements come from the operators' own ``act``, the sparse
per-determinant action the residual engine uses too, so the two code paths
validate each other.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .hamiltonian import MolecularProblem

_HERM_TOL = 1e-10


def enumerate_determinants(n_qubits: int, n_electrons: int, sz: float | None = None) -> tuple[int, ...]:
    """All occupation bitstrings with the given electron count, lexicographic.

    With ``sz`` given (in units of hbar, alpha = even bits), the alpha/beta
    split is fixed to n_alpha - n_beta = 2 sz.
    """
    if sz is None:
        dets = (sum(1 << q for q in c) for c in combinations(range(n_qubits), n_electrons))
        return tuple(sorted(dets))
    twice_sz = round(2 * sz)
    if (n_electrons + twice_sz) % 2:
        raise ValueError("sz incompatible with electron count")
    n_alpha = (n_electrons + twice_sz) // 2
    n_beta = n_electrons - n_alpha
    alphas = range(0, n_qubits, 2)
    betas = range(1, n_qubits, 2)
    dets = []
    for ca in combinations(alphas, n_alpha):
        bits_a = sum(1 << q for q in ca)
        for cb in combinations(betas, n_beta):
            dets.append(bits_a + sum(1 << q for q in cb))
    return tuple(sorted(dets))


class DeterminantBasis:
    """Ordered determinant list with an index map."""

    def __init__(self, determinants):
        self.determinants = tuple(determinants)
        self.index = {d: i for i, d in enumerate(self.determinants)}

    @classmethod
    def build(cls, n_qubits: int, n_electrons: int, sz: float | None = None) -> "DeterminantBasis":
        return cls(enumerate_determinants(n_qubits, n_electrons, sz))

    def __len__(self) -> int:
        return len(self.determinants)


def dense_matrix(op, n_qubits: int, basis: DeterminantBasis | None = None) -> np.ndarray:
    """<nu| op |mu> by sparse action on basis states.

    ``basis=None`` uses the full 2^n space ordered by integer value.  Entries
    landing outside a restricted basis are discarded (the sector projection).
    """
    if basis is None:
        dets = range(1 << n_qubits)
        index = None
        dim = 1 << n_qubits
    else:
        dets = basis.determinants
        index = basis.index
        dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for j, d in enumerate(dets):
        for d2, value in op.act(d).items():
            i = d2 if index is None else index.get(d2)
            if i is not None:
                mat[i, j] = value
    return mat


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


def fci_ground_state(problem: MolecularProblem, sz: float | None = 0.0):
    """FCI energy and vector of a molecular problem in its particle sector."""
    basis = DeterminantBasis.build(problem.n_qubits, problem.n_electrons, sz)
    energy, vec = ground_state(dense_matrix(problem.hamiltonian, problem.n_qubits, basis))
    return energy, vec, basis

