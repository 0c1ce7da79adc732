import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qjacobi import fermion
from qjacobi.cumulant import cumulant_decompose
from qjacobi.fermion import (FermionGenerator, FermionOperator, _pattern_table, _shape,
                             _shape_table, bch_transform, conjugate_key, key_events, key_support,
                             term_product)
from qjacobi.jacobi import (RunConfig, classical_residual, generator_from_determinant,
                            run_quantum_jacobi, select_deterministic, truncate)
import support
from support import (act_loop, apply_key_to_det, bch_loop, bits, classify_indices, commutator,
                     cumulant_loop, dense_matrix, excitation_rank, generator_operator,
                     is_hermitian_loop, max_rank, multiply, normal_op, plus, scaled,
                     truncate_loop, wick_structure)


def op_from_terms(*pairs, constant=0.0):
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, 0.0) + c
    return FermionOperator(terms, constant)


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
        op = normal_op([(0, False), (0, True)])
        assert op.constant == 1.0
        assert op.terms == {((0,), (0,)): -1.0}

    def test_canonical_parity(self):
        # a+_1 a+_0 a_0 a_1 -> +E^{01}_{01} (two transpositions)
        op = normal_op([(1, True), (0, True), (0, False), (1, False)])
        assert op.constant == 0.0
        assert op.terms == {((0, 1), (0, 1)): 1.0}

    def test_contraction_expansion(self):
        # a+_0 a_1 a+_1 a_0 = a+_0 a_0 - a+_0 a+_1 a_1 a_0
        op = normal_op([(0, True), (1, False), (1, True), (0, False)])
        assert op.terms == {((0,), (0,)): 1.0, ((0, 1), (0, 1)): -1.0}

    def test_matches_dense_matrix(self):
        raw = [(0, True), (1, False), (1, True), (0, False)]
        op = normal_op(raw)

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
            op = normal_op(key_to_events(key))
            if not op.terms:
                continue
            (k2, c2), = op.terms.items()
            assert k2 == key and c2 == 1.0

    def test_repeated_index_is_zero(self):
        op = normal_op([(0, True), (0, True), (1, False), (2, False)])
        assert not op.terms and op.constant == 0.0


def key_to_events(key):
    return [(e >> 1, bool(e & 1)) for e in key_events(key)]


class TestProducts:
    def test_identity_times_h(self, h2):
        h = h2.hamiltonian
        assert_ops_close(multiply(FermionOperator(constant=1.0), h), h)

    def test_zero_annihilates(self, h2):
        prod = multiply(h2.hamiltonian, FermionOperator())
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
            for k, c in support._reorder(key_events(ka) + key_events(kb)):
                slow[k] = slow.get(k, 0) + c
            assert fast == {k: c for k, c in slow.items() if c}

    def test_term_product_equals_wick_oracle_in_order(self):
        # tuples, so keys, integer coefficients and their order all count;
        # every subset pair on 3 modes covers unequal counts and the empty key
        subsets = [c for r in range(4) for c in combinations(range(3), r)]
        keys = [(cre, ann) for cre in subsets for ann in subsets]
        pairs = [(ka, kb) for ka in keys for kb in keys]
        rng = random.Random(11)

        def subset():
            return tuple(sorted(rng.sample(range(8), rng.randint(0, 8))))

        pairs += [((subset(), subset()), (subset(), subset())) for _ in range(3000)]
        for ka, kb in pairs:
            assert term_product(ka, kb) == support.term_product(ka, kb), (ka, kb)


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
            assert_ops_close(commutator(a, b), scaled(commutator(b, a), -1.0))


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
            c = commutator(op_from_terms((e_key, 1.0)), generator_operator(g))
            if not c.terms:
                continue
            assert max_rank(c) == excitation_rank(e_key) + len(g.excitation[0]) - 1
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
            a = generator_operator(FermionGenerator(excitation, sign))
            residue = plus(multiply(multiply(a, a), a), a)
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
        # every pair of determinants of one particle number on six modes
        for n in range(1, 6):
            dets = [sum(1 << q for q in c) for c in combinations(range(6), n)]
            for ref in dets:
                for target in dets:
                    if target != ref:
                        gen = FermionGenerator.from_determinants(ref, target)
                        assert apply_key_to_det(gen.excitation, ref) == (gen.sign, target)

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
            a = dense_matrix(generator_operator(gen), 4)
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
    a = generator_operator(gen)
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
        modes, table = _shape(gen)

        def canonical(indices):  # positions within the support, as a mask
            return sum(1 << k for k, q in enumerate(modes) if q in indices)

        keys = list(canonical_keys(8, 4))
        patterns = [(canonical(cre), canonical(ann)) for cre, ann in keys]
        ids, (linear, _, length, *_) = _pattern_table(patterns, table)
        cases = set()
        for key, pattern, i in zip(keys, patterns, ids):
            expected = closes_linearly(key, gen)
            commutes = pattern == (0, 0) or length[i] == 0
            assert commutes == (expected is None), key
            if not commutes:
                assert linear[i] == expected, key
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
        a = dense_matrix(generator_operator(gen), n)
        e = dense_matrix(FermionOperator({key: 1.0}), n)
        ref = expm(-theta * a) @ e @ expm(theta * a)
        assert np.max(np.abs(dense_matrix(out, n) - ref)) < 1e-10


class TestPatternTables:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("excitation", [((6,), (1,)), ((2, 7), (0, 4)),
                                            ((1, 3, 6), (0, 4, 5))])
    def test_tables_match_wick_oracle_in_order(self, excitation, sign, monkeypatch):
        # every canonical key on 8 modes up to rank 4: the sequence handed to
        # the merge is, key by key, the key itself and then its [E,A] and
        # [[E,A],A] terms from the Wick algebra of the full key, in order
        gen = FermionGenerator(excitation, sign)
        _shape_table.cache_clear()
        rng = random.Random(len(excitation[0]) * sign)
        op = FermionOperator({key: rng.uniform(-1.0, 1.0) for key in canonical_keys(8, 4)})
        theta = 0.7
        factors = {True: (math.sin(theta), 1.0 - math.cos(theta)),
                   False: (0.5 * math.sin(2.0 * theta), 0.5 * math.sin(theta) ** 2)}
        expected = []
        for key, h in op.terms.items():
            expected.append((key, h))
            struct = wick_structure(key, gen)
            if struct is not None:
                linear, c1, c2 = struct
                fs, fc = factors[linear]
                expected += [(k, h * fs * c) for k, c in c1] + [(k, h * fc * c) for k, c in c2]
        expected = [((fermion._mask(k[0]), fermion._mask(k[1])), v) for k, v in expected]
        merge, sequences = fermion._merge_first_seen, []

        def recording_merge(keys, vals):
            sequences.append(list(zip(zip(*(k.tolist() for k in keys)), vals.tolist())))
            return merge(keys, vals)

        monkeypatch.setattr(fermion, "_merge_first_seen", recording_merge)
        out = bch_transform(op, gen, theta)
        assert sequences == [expected]
        loop = bch_loop(op, gen, theta)
        assert (list(out.terms.items()), out.constant) == (list(loop[0].items()), loop[1])
        assert len(_shape(gen)[1]["ids"]) <= 4 ** len(excitation[0] + excitation[1])
        # with every pattern tabulated, keys map through masks alone

        def no_wick(*args):
            raise AssertionError("Wick algebra called per key")

        monkeypatch.setattr(fermion, "term_product", no_wick)
        again = bch_transform(op, gen, theta)
        assert sequences[1] == expected
        assert list(again.terms.items()) == list(out.terms.items())

    def test_shapes_share_one_table(self):
        # same creation positions within the support, any placement and sign
        table = _shape(FermionGenerator(((2, 7), (0, 4))))[1]
        assert _shape(FermionGenerator(((3, 9), (1, 5)), -1))[1] is table
        assert _shape(FermionGenerator(((0, 7), (2, 4))))[1] is not table


class TestCacheState:
    def test_trace_independent_of_cache_state(self, h4):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, rng_seed=5)
        run_quantum_jacobi(h4, RunConfig(**cfg, max_cycles=20))
        warm = run_quantum_jacobi(h4, RunConfig(**cfg, max_cycles=60)).to_jsonl()
        assert _shape_table.cache_info().currsize
        for cached in (_shape_table, term_product):
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


# Coefficients that cancel exactly and sit on the floor and the thresholds.
_DYADIC = st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, -1.0, 0.125, 1e-15, -3e-15])
_COEFFS = _DYADIC | st.floats(-2.0, 2.0, allow_nan=False)
# sin and 1 - cos are exact at +-pi/2, so dyadic contributions cancel exactly
_THETAS = (st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi / 4, math.pi])
           | st.floats(-3.2, 3.2))


@st.composite
def fermion_cases(draw):
    """(n, operator, generator): distinct keys of rank <= 5 on n <= 8 modes,
    some with their adjoint present too, and a pure excitation generator."""
    n = draw(st.integers(2, 8))

    def key():
        # the first ``shared`` creation modes are annihilated too (spectators)
        rank = draw(st.integers(1, min(5, n)))
        cre = draw(st.lists(st.integers(0, n - 1), min_size=rank, max_size=rank, unique=True))
        shared = draw(st.integers(0, rank))
        ann = cre[:shared] + draw(st.lists(st.integers(0, n - 1).filter(
            lambda q: q not in cre[:shared]), min_size=rank - shared, max_size=rank - shared,
            unique=True))
        return (tuple(sorted(cre)), tuple(sorted(ann)))

    keys = [key() for _ in range(draw(st.integers(0, 20)))]
    if keys:
        keys += [conjugate_key(k) for k in draw(st.lists(st.sampled_from(keys), max_size=6))]
    terms = {}
    for k in keys:
        terms.setdefault(k, draw(_COEFFS))
    op = FermionOperator(terms, draw(st.sampled_from([0.0, 1.5, -1e-15])))
    rank = draw(st.integers(1, n // 2))
    modes = draw(st.permutations(range(n)))
    gen = FermionGenerator((tuple(sorted(modes[:rank])), tuple(sorted(modes[rank:2 * rank]))),
                           draw(st.sampled_from((1, -1))))
    return n, op, gen


@st.composite
def near_hermitian_operators(draw):
    """A Hermitian operator on <= 8 modes, left as it is, with one term's
    conjugate missing, or with one coefficient moved by about the tolerance."""
    n = draw(st.integers(1, 8))
    modes = st.integers(0, n - 1)
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        rank = draw(st.integers(1, min(3, n)))
        cre, ann = (tuple(sorted(draw(st.lists(modes, min_size=rank, max_size=rank, unique=True))))
                    for _ in range(2))
        terms[(cre, ann)] = terms[(ann, cre)] = draw(_COEFFS)
    if terms:
        key = draw(st.sampled_from(sorted(terms)))
        change = draw(st.sampled_from(["none", "drop", "shift"]))
        if change == "drop":
            del terms[key]
        elif change == "shift":
            terms[key] += draw(st.sampled_from([1e-9, -1e-9, 1e-10, 1e-11]))
    return FermionOperator(terms)


def spread_key(key, modes):
    """``key`` with mode i moved to ``modes[i]``; the modes ascend, so a
    canonical key stays canonical."""
    return tuple(tuple(modes[i] for i in indices) for indices in key)


def spread(op, modes):
    return FermionOperator({spread_key(k, modes): h for k, h in op.terms.items()}, op.constant)


def spread_det(det, modes):
    return sum(1 << m for i, m in enumerate(modes) if det >> i & 1)


def wide_modes(n):
    """n ascending positions in 0..63."""
    return st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def wide_fermion_cases(draw):
    """(modes, operator, generator): a ``fermion_cases`` draw with its n modes
    spread over ``modes``, so that merged masks reach 64 bits."""
    n, op, gen = draw(fermion_cases())
    modes = draw(wide_modes(n))
    return modes, spread(op, modes), FermionGenerator(spread_key(gen.excitation, modes), gen.sign)


def assert_same_terms(op, expected):
    terms, constant = expected
    assert bits(op.terms.items()) == bits(terms.items())
    assert bits([(None, op.constant)]) == bits([(None, constant)])


class TestArrayPassesMatchLoops:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fermion_cases(), _THETAS)
    def test_bch_transform(self, case, theta):
        n, op, gen = case
        assert_same_terms(bch_transform(op, gen, theta), bch_loop(op, gen, theta))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fermion_cases(), st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
           st.just(255) | st.integers(0, 255))
    def test_cumulant_decompose(self, case, kappa, reference):
        n, op, gen = case
        reference &= (1 << n) - 1
        assert_same_terms(cumulant_decompose(op, kappa, reference),
                          cumulant_loop(op, kappa, reference))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fermion_cases(), st.sampled_from([0.0, 0.25, 0.5, 1e-15]) | st.floats(0.0, 2.0),
           st.integers(0, 8))
    def test_truncate(self, case, epsilon, n_electrons):
        n, op, gen = case
        assert_same_terms(truncate(op, epsilon, n_electrons),
                          truncate_loop(op, epsilon, n_electrons))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fermion_cases(), st.integers(0, 255))
    def test_act(self, case, det):
        n, op, gen = case
        det &= (1 << n) - 1
        assert bits(op.act(det).items()) == bits(act_loop(op, det).items())

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(near_hermitian_operators(), st.sampled_from([1e-10, 1e-12, 1e-8]))
    def test_is_hermitian(self, op, tol):
        assert op.is_hermitian(tol) == is_hermitian_loop(op, tol)

    # the same passes with masks up to 64 bits wide, where the merges' packed
    # sort keys pass 64 bits and np.lexsort takes over
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(wide_fermion_cases(), _THETAS)
    def test_bch_transform_on_64_modes(self, case, theta):
        modes, op, gen = case
        assert_same_terms(bch_transform(op, gen, theta), bch_loop(op, gen, theta))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(wide_fermion_cases(), st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
           st.just(255) | st.integers(0, 255))
    def test_cumulant_decompose_on_64_modes(self, case, kappa, reference):
        modes, op, gen = case
        reference = spread_det(reference, modes)
        assert_same_terms(cumulant_decompose(op, kappa, reference),
                          cumulant_loop(op, kappa, reference))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(wide_fermion_cases(), st.integers(0, 255))
    def test_act_on_64_modes(self, case, det):
        modes, op, gen = case
        det = spread_det(det, modes)
        assert bits(op.act(det).items()) == bits(act_loop(op, det).items())

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(near_hermitian_operators(), wide_modes(8), st.sampled_from([1e-10, 1e-12, 1e-8]))
    def test_is_hermitian_on_64_modes(self, op, modes, tol):
        op = spread(op, modes)
        assert op.is_hermitian(tol) == is_hermitian_loop(op, tol)

    def test_is_hermitian_on_missing_conjugate_and_mismatch(self, h2):
        assert h2.hamiltonian.is_hermitian(1e-12)
        assert not FermionOperator({((1,), (0,)): 0.5}).is_hermitian()
        assert not FermionOperator({((1,), (0,)): 0.5, ((0,), (1,)): 0.5 + 1e-9}).is_hermitian()
        assert FermionOperator({((0,), (0,)): 0.5}).is_hermitian()

    def test_h4_cycles(self, h4):
        # the passes of a cfqj cycle on real operators, chained for six cycles
        h, phi0 = h4.hamiltonian, h4.hf_determinant
        for _ in range(6):
            assert bits(h.act(phi0).items()) == bits(act_loop(h, phi0).items())
            pick = select_deterministic(classical_residual(h, phi0))
            gen = generator_from_determinant(phi0, pick, FermionGenerator)
            conj = bch_transform(h, gen, 0.3)
            assert_same_terms(conj, bch_loop(h, gen, 0.3))
            comp = cumulant_decompose(conj, 1e-3, phi0)
            assert_same_terms(comp, cumulant_loop(conj, 1e-3, phi0))
            h = truncate(comp, 1e-4, 4)
            assert_same_terms(h, truncate_loop(comp, 1e-4, 4))

    def test_conjugation_cancels_exactly(self):
        # at theta = pi/2 the rotation a+_2 a_0 -> -a+_2 a_1 is complete: the
        # input keys sum to exactly 0 and are pruned, as in the loop
        gen = FermionGenerator(((1,), (0,)))
        op = FermionOperator({((2,), (0,)): 0.5, ((0,), (2,)): 0.5})
        out = bch_transform(op, gen, math.pi / 2)
        assert_same_terms(out, bch_loop(op, gen, math.pi / 2))
        assert dict(out.terms) == {((2,), (1,)): -0.5, ((1,), (2,)): -0.5}

    def test_terms_view(self):
        op = FermionOperator({((2,), (0,)): 0.5, ((0, 1), (0, 1)): -0.25}, constant=1.0)
        assert len(op.terms) == 2 and op.term_count() == 2
        assert list(op.terms) == [((2,), (0,)), ((0, 1), (0, 1))]
        assert op.terms[((0, 1), (0, 1))] == -0.25 and op.terms.get(((0,), (2,))) is None
        for arr in (op.cre, op.ann, op.coeffs):
            assert not arr.flags.writeable

    def test_more_than_64_modes_rejected(self):
        FermionOperator({((63,), (0,)): 1.0})  # fine
        with pytest.raises(ValueError, match="64 modes"):
            FermionOperator({((64,), (0,)): 1.0})

    def test_generator_beyond_64_modes_rejected(self):
        FermionGenerator(((63,), (0,)))  # fine
        with pytest.raises(ValueError, match="64 modes"):
            FermionGenerator(((70,), (0,)))

    def test_from_determinants_beyond_64_modes_rejected(self):
        # a ValueError, not numpy's OverflowError, so a run ends as QJRunError
        with pytest.raises(ValueError, match="64 modes"):
            FermionGenerator.from_determinants((1 << 70) | 1, (1 << 71) | 1)
