"""Second-quantized molecular Hamiltonian assembly from FCIDUMP integrals.

Spin orbitals are interleaved: spatial orbital i (0-based) provides alpha at
index 2i and beta at 2i+1, which keeps Jordan-Wigner Z-strings short for
paired excitations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fcidump import FCIDumpData
from .fermion import FermionOperator, Key, normal_order

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class MolecularProblem:
    """A molecular Hamiltonian in the spin-orbital basis plus its HF reference."""

    hamiltonian: FermionOperator
    n_qubits: int
    n_electrons: int
    core_energy: float
    hf_determinant: int


def spin_orbital(spatial_0based: int, spin: int) -> int:
    """spin 0 = alpha (even index), spin 1 = beta (odd index)."""
    return 2 * spatial_0based + spin


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


def build_hamiltonian(data: FCIDumpData) -> MolecularProblem:
    """Assemble H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q + core.

    The raw products are re-expressed in canonical normal-ordered keys; the
    result is Hermitian by construction and rejected otherwise.
    """
    n = data.n_spatial
    terms: dict[Key, float] = {}
    constant = data.core_energy

    def add(events, coefficient):
        nonlocal constant
        piece, piece_constant = normal_order(events, coefficient)
        constant += piece_constant
        for k, c in piece.items():
            terms[k] = terms.get(k, 0.0) + c

    for (p, q), v in data.one_body.items():
        sym = data.one(q, p)
        if abs(v - sym) > _HERMITICITY_TOL:
            raise ValueError(f"one-body integral ({p},{q}) asymmetric beyond tolerance")

    for p in range(1, n + 1):
        for q in range(1, n + 1):
            v = data.one(p, q)
            if v == 0.0:
                continue
            for s in (0, 1):
                add([(spin_orbital(p - 1, s), True), (spin_orbital(q - 1, s), False)], v)

    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, n + 1):
                for s_ in range(1, n + 1):
                    v = data.two(p, q, r, s_)
                    if v == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            add([(spin_orbital(p - 1, sig), True),
                                 (spin_orbital(r - 1, tau), True),
                                 (spin_orbital(s_ - 1, tau), False),
                                 (spin_orbital(q - 1, sig), False)], 0.5 * v)

    h = FermionOperator(terms, constant).pruned()
    if not h.is_hermitian(_HERMITICITY_TOL):
        raise ValueError("assembled Hamiltonian is not Hermitian; check integral symmetry")
    return MolecularProblem(
        hamiltonian=h,
        n_qubits=2 * n,
        n_electrons=data.n_electrons,
        core_energy=data.core_energy,
        hf_determinant=hf_determinant_bits(data.n_electrons, data.ms2),
    )

