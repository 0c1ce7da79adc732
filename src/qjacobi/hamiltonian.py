"""Second-quantized molecular Hamiltonian assembly from FCIDUMP integrals.

Spin orbitals are interleaved: spatial orbital i (0-based) provides alpha at
index 2i and beta at 2i+1, which keeps Jordan-Wigner Z-strings short for
paired excitations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fcidump import FCIDumpData
from .fermion import MAX_MODES, FermionOperator
from .pauli import ZERO_FLOOR, _merge_first_seen

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class MolecularProblem:
    """A molecular Hamiltonian in the spin-orbital basis plus its HF reference."""

    hamiltonian: FermionOperator
    n_qubits: int
    n_electrons: int
    hf_determinant: int


def hf_determinant_bits(n_electrons: int, ms2: int = 0) -> int:
    """Aufbau determinant over the interleaved ordering."""
    n_alpha = (n_electrons + ms2) // 2
    n_beta = n_electrons - n_alpha
    det = 0
    for i in range(n_alpha):
        det |= 1 << (2 * i)
    for i in range(n_beta):
        det |= 1 << (2 * i + 1)
    return det


def _pieces(dense: np.ndarray, spins) -> tuple[np.ndarray, list[np.ndarray]]:
    """Values of the nonzero entries of ``dense``, each repeated for every
    row of ``spins`` (one spin per index), in loop order (orbitals, then
    spins), and per index the uint64 mask of its spin orbital."""
    idx = np.nonzero(dense)
    spins = np.array(spins)
    return (np.repeat(dense[idx], len(spins)),
            [np.uint64(1) << (2 * i[:, None] + s).ravel().astype(np.uint64)
             for i, s in zip(idx, spins.T)])


def build_hamiltonian(data: FCIDumpData) -> MolecularProblem:
    """Assemble H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q + core.

    Every product is already normal-ordered, so each piece is one canonical
    term, formed as arrays: a+_P a_Q, P = (p, s), Q = (q, s), in loop order
    (p, q, s); then a+_P a+_R a_S a_Q, P = (p, sigma), Q = (q, sigma), R = (r,
    tau), S = (s, tau), in loop order (p, q, r, s, sigma, tau).  A two-body
    piece vanishes when P == R or S == Q; sorting its creations ascending and
    annihilations descending gives it (v / 2) (-1)^[P > R] (-1)^[S < Q].
    Pieces at or below ZERO_FLOOR are dropped and equal keys summed in loop
    order.  ``FCIDumpData.dense_integrals`` rejects an integral under a key
    that is not canonical or out of range; a non-Hermitian result is rejected.
    """
    n = data.n_spatial
    if 2 * n > MAX_MODES:
        raise ValueError(f"fermionic operators support at most {MAX_MODES} modes")
    one, two = data.dense_integrals()
    v1, (p1, q1) = _pieces(one, ((0, 0), (1, 1)))
    v2, (p2, q2, r2, s2) = _pieces(two, ((0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)))
    # one-bit masks compare as their mode indices do
    ok = (p2 != r2) & (s2 != q2)
    cre = np.concatenate((p1, (p2 | r2)[ok]))
    ann = np.concatenate((q1, (s2 | q2)[ok]))
    coeffs = np.concatenate((v1, ((0.5 * v2) * np.where((p2 > r2) ^ (s2 < q2), -1.0, 1.0))[ok]))
    keep = np.abs(coeffs) > ZERO_FLOOR
    (cre, ann), coeffs = _merge_first_seen((cre[keep], ann[keep]), coeffs[keep])
    h = FermionOperator.from_arrays(cre, ann, coeffs, data.core_energy).pruned()
    if not h.is_hermitian(_HERMITICITY_TOL):
        raise ValueError("assembled Hamiltonian is not Hermitian; check integral symmetry")
    return MolecularProblem(
        hamiltonian=h,
        n_qubits=2 * n,
        n_electrons=data.n_electrons,
        hf_determinant=hf_determinant_bits(data.n_electrons, data.ms2),
    )
