import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi.fcidump import FCIDumpData, _canonical_one, _canonical_two
from qjacobi.fermion import FermionOperator
from qjacobi.hamiltonian import build_hamiltonian
from qjacobi.jacobi import diagonal_element
from qjacobi.pauli import ZERO_FLOOR
from support import (build_hamiltonian_loop, commutator, dense_matrix, expectation_exact,
                     hf_energy, prepare_determinant)

# exact zeros, values at and just above ZERO_FLOOR (a two-body piece halves
# its value), and ordinary magnitudes
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, ZERO_FLOOR, -ZERO_FLOOR, 2 * ZERO_FLOOR,
                     np.nextafter(ZERO_FLOOR, 1.0), -np.nextafter(2 * ZERO_FLOOR, 1.0)]),
    st.floats(-2.0, 2.0, allow_nan=False))


def _canonical_keys(n, rank):
    """Every canonical integral key over orbitals 1..n."""
    canonical = _canonical_one if rank == 2 else _canonical_two
    return sorted({canonical(*k) for k in itertools.product(range(1, n + 1), repeat=rank)})


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
    from support import _sort_parity

    h = h4.hamiltonian
    for (cre, ann), coeff in h.terms.items():
        mc = tuple(q ^ 1 for q in cre)
        ma = tuple(q ^ 1 for q in ann)
        # relabeling keeps the written order; canonicalizing costs two parities
        sign = _sort_parity(list(mc)) * _sort_parity(list(ma))
        mapped = (tuple(sorted(mc)), tuple(sorted(ma)))
        assert abs(h.terms.get(mapped, 0.0) - sign * coeff) < 1e-10


def test_count_terms_trivial():
    assert FermionOperator().term_count() == 0
    assert FermionOperator(constant=2.0).term_count() == 0


def test_count_terms_h4(h4):
    # records our canonical-key counting convention at desk scale
    assert 100 <= h4.hamiltonian.term_count() <= 1000


def test_hf_determinant_lowest_orbitals(h4):
    assert h4.hf_determinant == 0b1111


def _same_operator(op, terms, constant):
    """Bitwise ``==`` of an operator to a ``(terms, constant)`` oracle,
    term order included."""
    ref = FermionOperator(terms, constant)
    return (all(a.tobytes() == b.tobytes() for a, b in ((op.cre, ref.cre), (op.ann, ref.ann),
                                                         (op.coeffs, ref.coeffs)))
            and op.constant == ref.constant)


class TestArrayBuild:
    """The array build is bitwise the dict loop over ``normal_order``."""

    @pytest.mark.parametrize("name, n_terms", [("h2", 14), ("h4", 184), ("h6", 918)])
    def test_fixtures_match_loop(self, request, name, n_terms):
        data = request.getfixturevalue(f"{name}_data")
        h = request.getfixturevalue(name).hamiltonian
        assert h.term_count() == n_terms
        assert _same_operator(h, *build_hamiltonian_loop(data))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_integrals_match_loop(self, draw):
        n = draw.draw(st.integers(1, 4))
        n_electrons = draw.draw(st.integers(1, 2 * n))
        ms2 = draw.draw(st.sampled_from([m for m in range(-n_electrons, n_electrons + 1)
                                         if (n_electrons + m) % 2 == 0
                                         and n_electrons + abs(m) <= 2 * n]))
        data = FCIDumpData(n_spatial=n, n_electrons=n_electrons, ms2=ms2,
                           core_energy=draw.draw(_VALUES))
        for key in _canonical_keys(n, 2):
            if draw.draw(st.booleans()):
                data.one_body[key] = draw.draw(_VALUES)
        for key in _canonical_keys(n, 4):
            if draw.draw(st.booleans()):
                data.two_body[key] = draw.draw(_VALUES)
        problem = build_hamiltonian(data)
        assert _same_operator(problem.hamiltonian, *build_hamiltonian_loop(data))
        assert problem.hf_determinant.bit_count() == n_electrons


class TestRejectedIntegrals:
    """A key that is not canonical or not within 1..n_spatial, or more
    orbitals than 64 modes hold, is rejected."""

    @pytest.mark.parametrize("table, key", [
        ("two_body", (1, 2, 1, 2)),   # canonical is (2, 1, 2, 1)
        ("two_body", (1, 1, 2, 2)),   # canonical is (2, 2, 1, 1)
        ("two_body", (3, 1, 1, 1)),   # orbital 3 of 2
        ("two_body", (1, 1, 0, 0)),   # orbital 0
        ("two_body", (2, 1, 1)),      # three indices
        ("one_body", (1, 2)),         # canonical is (2, 1)
        ("one_body", (3, 3)),         # orbital 3 of 2
        ("one_body", (1, 0)),         # orbital 0
    ])
    def test_bad_key_rejected(self, table, key):
        data = FCIDumpData(n_spatial=2, n_electrons=2)
        data.one_body.update({(1, 1): -1.0, (2, 2): -0.5})
        getattr(data, table)[key] = 0.3
        with pytest.raises(ValueError, match=re.escape(str(key))):
            build_hamiltonian(data)

    def test_more_than_64_modes_rejected(self):
        # a mask shift by 64 or more would wrap to 0 instead of failing
        data = FCIDumpData(n_spatial=33, n_electrons=2)
        data.one_body[(1, 1)] = -1.0
        with pytest.raises(ValueError, match="64 modes"):
            build_hamiltonian(data)

    def test_canonical_key_kept(self):
        data = FCIDumpData(n_spatial=2, n_electrons=2)
        data.one_body.update({(1, 1): -1.0, (2, 2): -0.5})
        base = build_hamiltonian(data).hamiltonian.term_count()
        data.two_body[(2, 1, 2, 1)] = 0.3
        assert (base, build_hamiltonian(data).hamiltonian.term_count()) == (4, 10)
