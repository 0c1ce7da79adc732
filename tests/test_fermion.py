import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qjacobi import fermion
from qjacobi.fci import dense_matrix
from qjacobi.fermion import (FermionGenerator, FermionOperator, _bch_structure, _gen_cache,
                             _reorder, apply_key_to_det, bch_transform, classify_indices,
                             commutator, conjugate_key, excitation_rank, key_events,
                             key_support, multiply, normal_order, term_product)
from qjacobi.jacobi import RunConfig, run_quantum_jacobi


def op_from_terms(*pairs, constant=0.0):
    out = FermionOperator(constant=constant)
    for key, c in pairs:
        out.terms[key] = out.terms.get(key, 0.0) + c
    return out


def assert_ops_close(a, b, tol=1e-12):
    keys = set(a.terms) | set(b.terms)
    for k in keys:
        assert abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol, k
    assert abs(a.constant - b.constant) <= tol


def random_key(rng, n_orb, max_rank=2):
    r = rng.randint(1, max_rank)
    return (tuple(sorted(rng.sample(range(n_orb), r))),
            tuple(sorted(rng.sample(range(n_orb), r))))


def random_pure_excitation(rng, n_orb, max_rank=2):
    while True:
        r = rng.randint(1, max_rank)
        pool = list(range(n_orb))
        rng.shuffle(pool)
        cre, ann = tuple(sorted(pool[:r])), tuple(sorted(pool[r:2 * r]))
        if not set(cre) & set(ann):
            return (cre, ann)


class TestNormalOrder:
    def test_anticommutation(self):
        # a_0 a+_0 = 1 - a+_0 a_0
        op = normal_order([(0, False), (0, True)])
        assert op.constant == 1.0
        assert op.terms == {((0,), (0,)): -1.0}

    def test_canonical_parity(self):
        # a+_1 a+_0 a_0 a_1 -> +E^{01}_{01} (two transpositions)
        op = normal_order([(1, True), (0, True), (0, False), (1, False)])
        assert op.constant == 0.0
        assert op.terms == {((0, 1), (0, 1)): 1.0}

    def test_contraction_expansion(self):
        # a+_0 a_1 a+_1 a_0 = a+_0 a_0 - a+_0 a+_1 a_1 a_0
        op = normal_order([(0, True), (1, False), (1, True), (0, False)])
        assert op.terms == {((0,), (0,)): 1.0, ((0, 1), (0, 1)): -1.0}

    def test_matches_dense_matrix(self):
        raw = [(0, True), (1, False), (1, True), (0, False)]
        op = normal_order(raw)

        def elementary(q, cre):
            m = np.zeros((4, 4), dtype=complex)
            for d in range(4):
                res = apply_key_to_det(((q,), ()) if cre else ((), (q,)), d)
                if res is not None:
                    m[res[1], d] = res[0]
            return m

        dense = np.eye(4, dtype=complex)
        for q, cre in raw:  # left-to-right product of the written string
            dense = dense @ elementary(q, cre)
        assert np.allclose(dense, dense_matrix(op, 2))

    def test_idempotent_on_canonical(self):
        rng = random.Random(1)
        for _ in range(50):
            key = random_key(rng, 4)
            op = normal_order(key_to_events(key))
            if not op.terms:
                continue
            (k2, c2), = op.terms.items()
            assert k2 == key and c2 == 1.0

    def test_repeated_index_is_zero(self):
        op = normal_order([(0, True), (0, True), (1, False), (2, False)])
        assert not op.terms and op.constant == 0.0


def key_to_events(key):
    return [(e >> 1, bool(e & 1)) for e in key_events(key)]


class TestProducts:
    def test_identity_times_h(self, h2):
        h = h2.hamiltonian
        assert_ops_close(multiply(FermionOperator.identity(), h), h)

    def test_zero_annihilates(self, h2):
        prod = multiply(h2.hamiltonian, FermionOperator.zero())
        assert not prod.terms and prod.constant == 0.0

    def test_spec_product(self):
        # (a+_2 a_0)(a+_0 a_2) = a+_2 a_2 - a+_0 a+_2 a_2 a_0
        a = op_from_terms((((2,), (0,)), 1.0))
        b = op_from_terms((((0,), (2,)), 1.0))
        prod = multiply(a, b)
        assert_ops_close(prod, op_from_terms((((2,), (2,)), 1.0), (((0, 2), (0, 2)), -1.0)))

    def test_product_against_dense(self):
        rng = random.Random(3)
        for _ in range(40):
            ka, kb = random_key(rng, 3), random_key(rng, 3)
            prod = multiply(op_from_terms((ka, 1.0)), op_from_terms((kb, 1.0)))
            ref = dense_matrix(op_from_terms((ka, 1.0)), 3) @ dense_matrix(op_from_terms((kb, 1.0)), 3)
            assert np.allclose(dense_matrix(prod, 3), ref, atol=1e-12)

    def test_term_product_matches_generic_reorder(self):
        rng = random.Random(7)
        for _ in range(200):
            ka, kb = random_key(rng, 4), random_key(rng, 4)
            fast = dict(term_product(ka, kb))
            slow = {}
            for k, c in _reorder(key_events(ka) + key_events(kb)):
                slow[k] = slow.get(k, 0) + c
            assert fast == {k: c for k, c in slow.items() if c}


class TestCommutator:
    def test_self_commutator_vanishes(self, h2):
        c = commutator(h2.hamiltonian, h2.hamiltonian)
        assert not c.terms and abs(c.constant) < 1e-12

    def test_disjoint_number_operators_commute(self):
        n0 = op_from_terms((((0,), (0,)), 1.0))
        n1 = op_from_terms((((1,), (1,)), 1.0))
        c = commutator(n0, n1)
        assert not c.terms

    def test_against_dense(self):
        a = op_from_terms((((2,), (0,)), 1.0))
        b = op_from_terms((((0,), (2,)), 1.0))
        ref = (dense_matrix(a, 3) @ dense_matrix(b, 3)
               - dense_matrix(b, 3) @ dense_matrix(a, 3))
        assert np.allclose(dense_matrix(commutator(a, b), 3), ref)

    def test_antisymmetry(self):
        rng = random.Random(11)
        for _ in range(30):
            a = op_from_terms((random_key(rng, 4), rng.uniform(-1, 1)))
            b = op_from_terms((random_key(rng, 4), rng.uniform(-1, 1)))
            assert_ops_close(commutator(a, b), commutator(b, a).scaled(-1.0))


class TestRankAndClassification:
    def test_all_spectators(self):
        key = ((0, 2), (0, 2))
        assert excitation_rank(key) == 2
        assert classify_indices(key) == ((), (), (0, 2))

    def test_mixed(self):
        key = ((1, 4), (0, 1))
        assert excitation_rank(key) == 2
        pure_cre, pure_ann, spect = classify_indices(key)
        assert pure_cre == (4,) and pure_ann == (0,) and spect == (1,)

    def test_commutator_rank_identity(self):
        # rank([E, A]) = rank(E) + rank(A) - 1 whenever the commutator survives
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            e_key = random_key(rng, 6, max_rank=2)
            g = FermionGenerator(random_pure_excitation(rng, 6, max_rank=2))
            c = commutator(op_from_terms((e_key, 1.0)), g.operator())
            if not c.terms:
                continue
            assert c.max_rank() == excitation_rank(e_key) + g.rank() - 1
            checked += 1


def pure_excitations(n_modes, max_rank):
    for rank in range(1, max_rank + 1):
        for cre in combinations(range(n_modes), rank):
            rest = [q for q in range(n_modes) if q not in cre]
            for ann in combinations(rest, rank):
                yield (cre, ann)


class TestGenerator:
    def test_nilpotency_enforced(self):
        FermionGenerator(((2, 3), (0, 1)))  # fine
        with pytest.raises(ValueError):
            FermionGenerator(((0, 2), (0, 1)))  # spectator index

    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_pure_excitation_is_nilpotent(self, sign):
        # A^3 = -A follows from disjoint creation and annihilation indices,
        # which is all the constructor checks
        count = 0
        for excitation in pure_excitations(8, 3):
            a = FermionGenerator(excitation, sign).operator()
            residue = multiply(multiply(a, a), a).plus(a)
            assert not residue.terms and not residue.constant, excitation
            count += 1
        assert count == 56 + 420 + 560

    def test_from_determinants_sign(self):
        # phi0 = 0011, phi_mu = 0101: A = a+_2 a_1 - a+_1 a_2 oriented to +1
        gen = FermionGenerator.from_determinants(0b0011, 0b0101)
        assert gen.excitation == ((2,), (1,))
        res = apply_key_to_det(gen.excitation, 0b0011)
        assert res is not None
        assert gen.sign * res[0] == 1 and res[1] == 0b0101

    def test_particle_violation_rejected(self):
        with pytest.raises(ValueError):
            FermionGenerator.from_determinants(0b0011, 0b0111)


class TestBchFermionic:
    def test_theta_zero(self):
        gen = FermionGenerator(((2,), (0,)))
        out = bch_transform(FermionOperator({((1,), (1,)): 0.7}), gen, 0.0)
        assert out.terms == {((1,), (1,)): 0.7}

    def test_disjoint_support_unchanged(self):
        gen = FermionGenerator(((3,), (2,)))
        out = bch_transform(FermionOperator({((1,), (0,)): 0.5}), gen, 1.2)
        assert out.terms == {((1,), (0,)): 0.5}

    def test_against_dense_conjugation(self):
        rng = random.Random(42)
        worst = 0.0
        for _ in range(60):
            key = random_key(rng, 4)
            gen = FermionGenerator(random_pure_excitation(rng, 4), rng.choice((1, -1)))
            theta = rng.uniform(-3.0, 3.0)
            out = bch_transform(FermionOperator({key: 1.0}), gen, theta)
            a = dense_matrix(gen.operator(), 4)
            e = dense_matrix(op_from_terms((key, 1.0)), 4)
            ref = expm(-theta * a) @ e @ expm(theta * a)
            worst = max(worst, float(np.max(np.abs(dense_matrix(out, 4) - ref))))
        assert worst < 1e-10

    def test_hermiticity_preserved(self, h2):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        out = bch_transform(h2.hamiltonian, gen, 0.3)
        assert out.is_hermitian(1e-12)

    def test_particle_number_conserved(self, h2):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        out = bch_transform(h2.hamiltonian, gen, 0.9)
        assert all(len(cre) == len(ann) for cre, ann in out.terms)

    def test_isospectral(self, h2):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        before = np.linalg.eigvalsh(dense_matrix(h2.hamiltonian, 4))
        after = np.linalg.eigvalsh(dense_matrix(bch_transform(h2.hamiltonian, gen, 0.4), 4))
        assert np.max(np.abs(before - after)) < 1e-10

    def test_conjugate_key_is_adjoint(self):
        rng = random.Random(5)
        for _ in range(20):
            key = random_key(rng, 4)
            m = dense_matrix(op_from_terms((key, 1.0)), 4)
            md = dense_matrix(op_from_terms((conjugate_key(key), 1.0)), 4)
            assert np.allclose(m.conj().T, md)


def closes_linearly(key, gen):
    """Symbolic oracle for the closed-form case: A [E,A] A == 0, or None if [E,A] = 0."""
    a = gen.operator()
    c1 = commutator(FermionOperator({key: 1.0}), a)
    if not c1.terms and not c1.constant:
        return None
    axa = multiply(multiply(a, c1), a)
    return not axa.terms and not axa.constant


def canonical_keys(n_modes, max_rank):
    for rank in range(1, max_rank + 1):
        for cre in combinations(range(n_modes), rank):
            for ann in combinations(range(n_modes), rank):
                yield (cre, ann)


class TestClosedFormCase:
    @pytest.mark.parametrize("excitation", [((6,), (1,)), ((2, 7), (0, 4)),
                                            ((1, 3, 6), (0, 4, 5))])
    def test_overlap_rule_matches_symbolic_oracle(self, excitation):
        gen = FermionGenerator(excitation)
        cache = _gen_cache(gen)
        cases = set()
        for key in canonical_keys(8, 4):
            expected = closes_linearly(key, gen)
            struct = _bch_structure(key, cache)
            assert (struct is None) == (expected is None), key
            if struct is not None:
                assert struct[0] == expected, key
                cases.add(expected)
        assert cases == {True, False}

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_conjugation_matches_expm(self, data):
        n = data.draw(st.integers(2, 6))
        rank = data.draw(st.integers(1, min(3, n // 2)))
        modes = data.draw(st.permutations(range(n)))
        gen = FermionGenerator((tuple(sorted(modes[:rank])), tuple(sorted(modes[rank:2 * rank]))),
                               data.draw(st.sampled_from((1, -1))))
        key_rank = data.draw(st.integers(1, min(3, n)))
        cre = data.draw(st.lists(st.integers(0, n - 1), min_size=key_rank,
                                 max_size=key_rank, unique=True))
        ann = data.draw(st.lists(st.integers(0, n - 1), min_size=key_rank,
                                 max_size=key_rank, unique=True))
        key = (tuple(sorted(cre)), tuple(sorted(ann)))
        theta = data.draw(st.floats(-3.2, 3.2))
        out = bch_transform(FermionOperator({key: 1.0}), gen, theta)
        a = dense_matrix(gen.operator(), n)
        e = dense_matrix(FermionOperator({key: 1.0}), n)
        ref = expm(-theta * a) @ e @ expm(theta * a)
        assert np.max(np.abs(dense_matrix(out, n) - ref)) < 1e-10


def wick_structure(key, gen):
    """Per-key Wick oracle for ``_bch_structure``: [E,A] and [[E,A],A] of the
    full key through ``term_product``, with the overlap rule for the case."""
    g, gd, s = gen.excitation, conjugate_key(gen.excitation), gen.sign

    def comm(k):
        acc = {}
        for left, right, sign in ((k, g, 1), (g, k, -1), (k, gd, -1), (gd, k, 1)):
            for kk, c in term_product(left, right):
                acc[kk] = acc.get(kk, 0) + sign * c
        return tuple((kk, s * c) for kk, c in acc.items() if c)

    support = key_support(g)
    if key_support(key) & support == 0:
        return None
    c1 = comm(key)
    if not c1:
        return None
    acc2 = {}
    for k, c in c1:
        for kk, cc in comm(k):
            acc2[kk] = acc2.get(kk, 0) + c * cc
    c2 = tuple((k, c) for k, c in acc2.items() if c)
    flip = (key_support((key[0], ())) ^ key_support(((), key[1]))) & support
    return (flip not in (0, support), c1, c2)


class TestPatternTables:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("excitation", [((6,), (1,)), ((2, 7), (0, 4)),
                                            ((1, 3, 6), (0, 4, 5))])
    def test_tables_match_wick_oracle_in_order(self, excitation, sign, monkeypatch):
        gen = FermionGenerator(excitation, sign)
        fermion._GEN_CACHES.pop((gen.excitation, gen.sign), None)
        cache = _gen_cache(gen)
        keys = list(canonical_keys(8, 4))
        expected = [wick_structure(key, gen) for key in keys]
        assert [_bch_structure(key, cache) for key in keys] == expected
        assert len(cache["table"]) <= 4 ** len(excitation[0] + excitation[1])
        # with every pattern tabulated, keys map through masks alone
        cache["struct"].clear()

        def no_wick(*args):
            raise AssertionError("Wick algebra called per key")

        monkeypatch.setattr(fermion, "term_product", no_wick)
        assert [_bch_structure(key, cache) for key in keys] == expected


class TestCacheState:
    def test_trace_independent_of_cache_state(self, h4):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, rng_seed=5)
        run_quantum_jacobi(h4, RunConfig(**cfg, max_cycles=20))
        warm = run_quantum_jacobi(h4, RunConfig(**cfg, max_cycles=60)).to_jsonl()
        assert fermion._GEN_CACHES
        fermion._GEN_CACHES.clear()
        for cached in (term_product, fermion._cross, _reorder):
            cached.cache_clear()
        cold = run_quantum_jacobi(h4, RunConfig(**cfg, max_cycles=60)).to_jsonl()
        assert cold == warm


class TestDeterminantAction:
    def test_annihilates_unoccupied(self):
        assert apply_key_to_det(((2,), (0,)), 0b0100) is None

    def test_parity_signs(self):
        # a+_2 a_0 on |0b011>: a_0 gives +|0b010>, a+_2 counts one below
        res = apply_key_to_det(((2,), (0,)), 0b011)
        assert res == (-1, 0b110)

    def test_matches_jw_parity(self):
        # parity = (-1)^(occupied below), the JW Z-string convention
        res = apply_key_to_det(((), (3,)), 0b1011)
        assert res == (1, 0b0011)  # two occupied below index 3
        res = apply_key_to_det(((), (1,)), 0b0011)
        assert res == (-1, 0b0001)
