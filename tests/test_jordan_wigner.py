import itertools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi import fci
from qjacobi.fermion import FermionGenerator, FermionOperator
from qjacobi.jordan_wigner import jordan_wigner, jw_generator
from qjacobi.pauli import PAULI_IDENTITY, pauli_multiply
from support import bits, dense_matrix, generator_operator, jw_generator_loop, multiply, plus


def max_abs_imag(op):
    return max((abs(c.imag) for c in op.terms.values()), default=0.0)


def test_number_operator_single_mode():
    # a+_0 a_0 -> (I - Z0)/2
    op = FermionOperator({((0,), (0,)): 1.0})
    jw = jordan_wigner(op)
    assert jw.terms == {PAULI_IDENTITY: 0.5, (0, 1): -0.5}


def test_total_number_operator():
    n = 4
    op = FermionOperator({((q,), (q,)): 1.0 for q in range(n)})
    jw = jordan_wigner(op)
    assert jw.terms[PAULI_IDENTITY] == n / 2
    for q in range(n):
        assert jw.terms[(0, 1 << q)] == -0.5


def test_h2_dense_equivalence(h2):
    mf = dense_matrix(h2.hamiltonian, h2.n_qubits)
    mp = dense_matrix(jordan_wigner(h2.hamiltonian), h2.n_qubits)
    assert np.max(np.abs(mf - mp)) < 1e-12


def test_sector_projection_matches(h2):
    basis = fci.basis(h2.n_qubits, h2.n_electrons).tolist()
    full = dense_matrix(jordan_wigner(h2.hamiltonian), h2.n_qubits)
    sector = dense_matrix(h2.hamiltonian, h2.n_qubits, basis)
    assert np.max(np.abs(full[np.ix_(basis, basis)] - sector)) < 1e-12


def test_linearity():
    rng = random.Random(31)
    for _ in range(20):
        k1 = ((rng.randrange(3),), (rng.randrange(3),))
        k2 = ((0, rng.randrange(1, 3)), (0, rng.randrange(1, 3)))
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        h1 = FermionOperator({k1: 1.0})
        h2_ = FermionOperator({k2: 1.0})
        combined = jordan_wigner(plus(FermionOperator({k1: a}), FermionOperator({k2: b}))).terms
        separate = {}
        for op, scale in ((jordan_wigner(h1), a), (jordan_wigner(h2_), b)):
            for k, c in op.terms.items():
                separate[k] = separate.get(k, 0) + scale * c
        for k in set(combined) | set(separate):
            assert abs(combined.get(k, 0) - separate.get(k, 0)) < 1e-14


def test_hermiticity_preserved(h4):
    jw = jordan_wigner(h4.hamiltonian)
    assert max_abs_imag(jw) < 1e-12


def test_generator_image_strings_commute():
    rng = random.Random(5)
    for _ in range(10):
        pool = list(range(6))
        rng.shuffle(pool)
        r = rng.randint(1, 3)
        gen = FermionGenerator((tuple(sorted(pool[:r])), tuple(sorted(pool[r:2 * r]))))
        strings = list(jw_generator(gen).terms)
        for i in range(len(strings)):
            for j in range(i + 1, len(strings)):
                p, q = strings[i], strings[j]
                assert pauli_multiply(p, q) == pauli_multiply(q, p)


def test_generator_image_matches_dense():
    gen = FermionGenerator.from_determinants(0b0011, 0b0101)
    mu = jw_generator(gen)
    # mu = -i(E - E+) must be Hermitian with real coefficients
    assert max_abs_imag(mu) < 1e-14
    dense_mu = dense_matrix(mu, 4)
    a = dense_matrix(generator_operator(gen), 4)
    assert np.max(np.abs(dense_mu - (-1j) * a)) < 1e-12


def test_generator_image_equals_two_loops():
    # every excitation of rank 1-3 on 8 modes, both signs: the strings in the
    # loops' order, each coefficient in IEEE bits
    for rank in (1, 2, 3):
        for cre in itertools.combinations(range(8), rank):
            rest = [q for q in range(8) if q not in cre]
            for ann, sign in itertools.product(itertools.combinations(rest, rank), (1, -1)):
                gen = FermionGenerator((cre, ann), sign)
                assert (bits(jw_generator(gen).terms.items())
                        == bits(jw_generator_loop(gen).terms.items()))


@st.composite
def fermion_operators(draw, n):
    """A random FermionOperator on n modes: canonical terms of rank <= 3 with
    real coefficients, plus a constant."""
    modes = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=min(3, n))
    terms = {}
    for cre in draw(st.lists(modes, max_size=5)):
        ann = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=len(cre),
                            max_size=len(cre)))
        terms[(tuple(sorted(cre)), tuple(sorted(ann)))] = draw(st.floats(-1.0, 1.0))
    return FermionOperator(terms, draw(st.floats(-1.0, 1.0)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), fermion_operators(n),
                                                     fermion_operators(n))))
def test_jordan_wigner_is_a_homomorphism(case):
    n, a, b = case
    product = dense_matrix(jordan_wigner(multiply(a, b)), n)
    factors = dense_matrix(jordan_wigner(a), n) @ dense_matrix(jordan_wigner(b), n)
    assert np.max(np.abs(product - factors)) < 1e-12
