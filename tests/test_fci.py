import itertools

import numpy as np
import pytest

from qjacobi import fci
from qjacobi.fci import fci_ground_state, fci_matrix, ground_state
from qjacobi.fcidump import FCIDumpData, _canonical_one, _canonical_two
from qjacobi.fermion import FermionGenerator, FermionOperator, bch_transform
from qjacobi.hamiltonian import MolecularProblem, build_hamiltonian
from qjacobi.statevector import compile_operator
from support import dense_matrix, embed_in_full_space, expectation_exact, hf_energy


def enumerate_determinants(n_qubits, n_electrons, sz=None):
    return tuple(fci.basis(n_qubits, n_electrons, sz).tolist())


def test_enumeration_counts():
    assert len(enumerate_determinants(4, 2)) == 6
    assert len(enumerate_determinants(4, 2, sz=0)) == 4
    assert len(enumerate_determinants(12, 6)) == 924
    assert len(enumerate_determinants(12, 6, sz=0)) == 400


def test_enumeration_lexicographic():
    dets = enumerate_determinants(4, 2)
    assert list(dets) == sorted(dets)
    assert all(d.bit_count() == 2 for d in dets)
    # the S_z basis is the N basis filtered on the alpha (even) bits
    alpha = 0b0101_0101
    assert enumerate_determinants(8, 4, sz=1.0) == tuple(
        d for d in enumerate_determinants(8, 4) if (d & alpha).bit_count() == 3)


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
    e, v = ground_state(np.diag([-1.0, 1.0]))
    assert e == -1.0
    assert np.allclose(v, [1.0, 0.0])


def test_ground_state_offdiagonal():
    e, v = ground_state(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(e + 1.0) < 1e-14
    assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)
    assert v[np.argmax(np.abs(v))].real > 0


def test_sz_beyond_electron_count_rejected(h2):
    with pytest.raises(ValueError, match="sz incompatible"):
        fci_ground_state(h2, sz=3.0)


def test_empty_sector_rejected():
    # two alpha electrons in one spatial orbital
    problem = MolecularProblem(FermionOperator(), n_qubits=2, n_electrons=2, hf_determinant=0b11)
    with pytest.raises(ValueError, match="no determinant of 2 electrons at sz=1.0"):
        fci_ground_state(problem, sz=1.0)


@pytest.mark.parametrize("dets", [(0b10, 0b01), (0b01, 0b01)])
def test_unordered_basis_rejected(dets):
    with pytest.raises(ValueError, match="strictly ascending"):
        fci_matrix(FermionOperator(), dets)


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ground_below_hf(h4_data, h4, h4_fci):
    assert h4_fci[0] <= hf_energy(h4_data) + 1e-12


def test_spectrum_invariant_under_bch(h2):
    basis = fci.basis(h2.n_qubits, h2.n_electrons, sz=0)
    gen = FermionGenerator.from_determinants(0b0011, 0b1100)
    before = np.linalg.eigvalsh(dense_matrix(h2.hamiltonian, h2.n_qubits, basis))
    transformed = bch_transform(h2.hamiltonian, gen, 0.37)
    after = np.linalg.eigvalsh(dense_matrix(transformed, h2.n_qubits, basis))
    assert np.max(np.abs(before - after)) < 1e-10


def test_embedding(h2, h2_fci):
    energy, vec, basis = h2_fci
    full = embed_in_full_space(vec, basis, h2.n_qubits)
    assert abs(expectation_exact(h2.hamiltonian, full) - energy) < 1e-10


def test_fci_h2_value_sane(h2_data, h2_fci):
    # correlation energy for H2/STO-6G near equilibrium is ~ -20 mHartree
    corr = h2_fci[0] - hf_energy(h2_data)
    assert -0.05 < corr < -0.005


class TestCompiledMatrix:
    """The FCI matrix compiled in float64 is ``==`` to the real part of the
    complex ``act`` oracle, whose imaginary part is exactly 0."""

    @pytest.mark.parametrize("name, sz", [("h2", 0.0), ("h4", 0.0), ("h6", 0.0),
                                          ("h4", None), ("h4", 1.0)])
    def test_matches_dense_oracle(self, request, name, sz):
        problem = request.getfixturevalue(name)
        basis = fci.basis(problem.n_qubits, problem.n_electrons, sz)
        matrix = fci_matrix(problem.hamiltonian, basis)
        oracle = dense_matrix(problem.hamiltonian, problem.n_qubits, basis)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, oracle.real)
        assert not np.any(oracle.imag)
        energy, vec, _ = fci_ground_state(problem, sz)
        assert abs(energy - ground_state(oracle)[0]) < 1e-12
        assert vec.dtype == np.float64 and vec[np.argmax(np.abs(vec))] > 0

    def test_empty_basis(self):
        # no determinant: the empty compile and a 0 x 0 matrix
        op = FermionOperator({((1,), (0,)): 0.5, ((0,), (0,)): 2.0}, constant=1.0)
        sparse = compile_operator(op, np.empty(0, np.uint64))
        assert sparse.cols.size == sparse.vals.size == 0
        assert fci_matrix(op, ()).shape == (0, 0)

    def test_rows_outside_the_basis_dropped(self):
        # a+_1 a_0 maps |01> to |10>, outside a basis of |01> alone: 1 + 2 is left
        op = FermionOperator({((1,), (0,)): 0.5, ((0,), (0,)): 2.0}, constant=1.0)
        assert np.array_equal(fci_matrix(op, (0b01,)), [[3.0]])
        full = (0b01, 0b10)
        assert np.array_equal(fci_matrix(op, full), dense_matrix(op, 2, full).real)

    @pytest.mark.parametrize("n_spatial, sz", [(16, 0.0), (20, 0.0), (32, -1.0)])
    def test_determinants_past_bit_31(self, n_spatial, sz):
        # two electrons over the first and last two orbitals of 16, 20 or 32:
        # the basis holds determinants at bit 31 and above, up to bit 63
        rng = np.random.default_rng(n_spatial)
        orbitals = (1, 2, n_spatial - 1, n_spatial)
        data = FCIDumpData(n_spatial=n_spatial, n_electrons=2, ms2=round(2 * sz), core_energy=0.7)
        for p in range(1, n_spatial + 1):
            data.one_body[(p, p)] = -1.0 + 0.01 * p
        for p, q in itertools.product(orbitals, repeat=2):
            data.one_body[_canonical_one(p, q)] = rng.uniform(-1, 1)
        for key in itertools.product(orbitals, repeat=4):
            data.two_body[_canonical_two(*key)] = rng.uniform(-0.5, 0.5)
        problem = build_hamiltonian(data)
        basis = fci.basis(problem.n_qubits, 2, sz)
        assert int(basis.max()).bit_length() == 2 * n_spatial
        oracle = dense_matrix(problem.hamiltonian, problem.n_qubits, basis)
        assert np.array_equal(fci_matrix(problem.hamiltonian, basis), oracle.real)
        assert not np.any(oracle.imag)
        energy = fci_ground_state(problem, sz)[0]
        assert abs(energy - np.linalg.eigvalsh(oracle.real)[0]) < 1e-12
