import numpy as np
import pytest

from qjacobi.fci import DeterminantBasis, dense_matrix, enumerate_determinants, ground_state
from qjacobi.fermion import FermionGenerator, FermionOperator, bch_transform
from support import embed_in_full_space, hf_energy


def test_enumeration_counts():
    assert len(enumerate_determinants(4, 2)) == 6
    assert len(enumerate_determinants(4, 2, sz=0)) == 4
    assert len(enumerate_determinants(12, 6)) == 924


def test_enumeration_lexicographic():
    dets = enumerate_determinants(4, 2)
    assert list(dets) == sorted(dets)
    assert all(d.bit_count() == 2 for d in dets)


def test_sz_restriction():
    dets = enumerate_determinants(4, 2, sz=1.0)  # both alpha
    assert dets == (0b0101,)


def test_dense_identity():
    op = FermionOperator(constant=1.0)
    assert np.allclose(dense_matrix(op, 2), np.eye(4))


def test_dense_number_operator():
    op = FermionOperator({((0,), (0,)): 1.0})
    assert np.allclose(dense_matrix(op, 1), np.diag([0.0, 1.0]))


def test_ground_state_diagonal():
    e, v = ground_state(np.diag([-1.0, 1.0]).astype(complex))
    assert e == -1.0
    assert np.allclose(v, [1.0, 0.0])


def test_ground_state_offdiagonal():
    e, v = ground_state(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert abs(e + 1.0) < 1e-14
    assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)
    assert v[np.argmax(np.abs(v))].real > 0


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ground_below_hf(h4_data, h4, h4_fci):
    assert h4_fci[0] <= hf_energy(h4_data) + 1e-12


def test_spectrum_invariant_under_bch(h2):
    basis = DeterminantBasis.build(h2.n_qubits, h2.n_electrons, sz=0)
    gen = FermionGenerator.from_determinants(0b0011, 0b1100)
    before = np.linalg.eigvalsh(dense_matrix(h2.hamiltonian, h2.n_qubits, basis))
    transformed = bch_transform(h2.hamiltonian, gen, 0.37)
    after = np.linalg.eigvalsh(dense_matrix(transformed, h2.n_qubits, basis))
    assert np.max(np.abs(before - after)) < 1e-10


def test_embedding(h2, h2_fci):
    energy, vec, basis = h2_fci
    full = embed_in_full_space(vec, basis, h2.n_qubits)
    from qjacobi.statevector import expectation_exact
    assert abs(expectation_exact(h2.hamiltonian, full) - energy) < 1e-10


def test_fci_h2_value_sane(h2_data, h2_fci):
    # correlation energy for H2/STO-6G near equilibrium is ~ -20 mHartree
    corr = h2_fci[0] - hf_energy(h2_data)
    assert -0.05 < corr < -0.005
