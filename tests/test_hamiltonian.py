import numpy as np

from qjacobi.fcidump import FCIDumpData
from qjacobi.fci import dense_matrix
from qjacobi.fermion import FermionOperator, commutator
from qjacobi.hamiltonian import build_hamiltonian, hf_energy
from qjacobi.jacobi import diagonal_element
from qjacobi.statevector import expectation_exact, prepare_determinant


def test_single_orbital_single_electron():
    data = FCIDumpData(n_spatial=1, n_electrons=1, ms2=1)
    data.one_body[(1, 1)] = -1.0
    problem = build_hamiltonian(data)
    assert hf_energy(data) == -1.0
    assert diagonal_element(problem.hamiltonian, problem.hf_determinant) == -1.0


def test_hf_energy_matches_expectation(h2_data, h2):
    state = prepare_determinant(h2.n_qubits, h2.hf_determinant)
    assert abs(expectation_exact(h2.hamiltonian, state) - hf_energy(h2_data)) < 1e-12


def test_hf_energy_matches_expectation_h4(h4_data, h4):
    state = prepare_determinant(h4.n_qubits, h4.hf_determinant)
    assert abs(expectation_exact(h4.hamiltonian, state) - hf_energy(h4_data)) < 1e-11


def test_fci_below_hf(h2_data, h2_fci):
    assert h2_fci[0] < hf_energy(h2_data)


def test_h2_dense_eigenvalue_matches_fci(h2, h2_fci):
    vals = np.linalg.eigvalsh(dense_matrix(h2.hamiltonian, h2.n_qubits))
    # the full-space ground energy can sit in another sector; the sector FCI
    # energy must appear in the spectrum
    assert np.min(np.abs(vals - h2_fci[0])) < 1e-10


def test_hermitian(h4):
    assert h4.hamiltonian.is_hermitian(1e-12)


def test_commutes_with_number_operator(h4):
    n_op = FermionOperator({((q,), (q,)): 1.0 for q in range(h4.n_qubits)})
    c = commutator(h4.hamiltonian, n_op)
    assert not c.terms and abs(c.constant) < 1e-12


def test_spin_exchange_symmetry(h4):
    # global alpha <-> beta exchange leaves every coefficient unchanged
    from qjacobi.fermion import _sort_parity

    h = h4.hamiltonian
    for (cre, ann), coeff in h.terms.items():
        mc = tuple(q ^ 1 for q in cre)
        ma = tuple(q ^ 1 for q in ann)
        # relabeling keeps the written order; canonicalizing costs two parities
        sign = _sort_parity(list(mc)) * _sort_parity(list(ma))
        mapped = (tuple(sorted(mc)), tuple(sorted(ma)))
        assert abs(h.terms.get(mapped, 0.0) - sign * coeff) < 1e-10


def test_count_terms_trivial():
    assert FermionOperator.zero().term_count() == 0
    assert FermionOperator.identity(2.0).term_count() == 0


def test_count_terms_h4(h4):
    # records our canonical-key counting convention at desk scale
    assert 100 <= h4.hamiltonian.term_count() <= 1000


def test_hf_determinant_lowest_orbitals(h4):
    assert h4.hf_determinant == 0b1111
