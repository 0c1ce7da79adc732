import itertools


from qjacobi.cumulant import cumulant_decompose
from qjacobi.fermion import FermionOperator
from qjacobi.jacobi import diagonal_element
from support import classify_indices, excitation_rank, max_rank, normal_op, plus

KAPPA = 1e-3
SMALL = 1e-4  # below kappa, triggers decomposition


def e_term(upper, lower, coeff=1.0):
    """Build coeff * E^{upper}_{lower} in the written pure-then-spectator order."""
    events = [(p, True) for p in upper] + [(q, False) for q in reversed(lower)]
    return normal_op(events, coeff)


def assert_ops_close(a, b, tol=1e-12):
    for k in set(a.terms) | set(b.terms):
        assert abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol, k
    assert abs(a.constant - b.constant) <= tol


class TestThreeCases:
    # reference: 8 spin orbitals, lowest 4 occupied
    REF = 0b00001111

    def test_m2_spectator_replaced_by_one(self):
        # E^{pqr}_{str} with occupied spectator r -> E^{pq}_{st}, coefficient kept
        original = e_term((4, 5, 2), (6, 7, 2), SMALL)
        out = cumulant_decompose(original, KAPPA, self.REF)
        assert_ops_close(out, e_term((4, 5), (6, 7), SMALL))

    def test_m1_distributed_over_spectators(self):
        # E^{p r1 r2}_{q r1 r2} -> 1/2 (E^{p r1}_{q r1} + E^{p r2}_{q r2})
        original = e_term((4, 1, 2), (5, 1, 2), SMALL)
        expected = plus(e_term((4, 1), (5, 1), SMALL / 2), e_term((4, 2), (5, 2), SMALL / 2))
        assert_ops_close(cumulant_decompose(original, KAPPA, self.REF), expected)

    def test_m0_pairwise_contractions(self):
        # E^{r1 r2 r3}_{r1 r2 r3} -> 1/3 sum of the three spectator pairs
        original = e_term((0, 1, 2), (0, 1, 2), SMALL)
        expected = FermionOperator()
        for a, b in itertools.combinations((0, 1, 2), 2):
            expected = plus(expected, e_term((a, b), (a, b), SMALL / 3))
        assert_ops_close(cumulant_decompose(original, KAPPA, self.REF), expected)

    def test_unoccupied_spectator_dropped(self):
        original = e_term((4, 1, 6), (5, 1, 6), SMALL)  # spectator 6 unoccupied
        out = cumulant_decompose(original, KAPPA, self.REF)
        assert not out.terms

    def test_large_coefficient_kept_verbatim(self):
        original = e_term((4, 1, 2), (5, 1, 2), 10 * KAPPA)
        out = cumulant_decompose(original, KAPPA, self.REF)
        assert_ops_close(out, original)

    def test_low_rank_untouched(self):
        original = e_term((4, 1), (5, 1), SMALL)
        out = cumulant_decompose(original, KAPPA, self.REF)
        assert_ops_close(out, original)

    def test_pure_high_rank_passes_through(self):
        # no spectators: nothing to contract
        original = e_term((4, 5, 6), (0, 1, 2), SMALL)
        out = cumulant_decompose(original, KAPPA, self.REF)
        assert_ops_close(out, original)


class TestHFExpectationPreservation:
    def test_fully_occupied_spectators_up_to_l4(self):
        # every all-spectator operator with l in {3, 4} over an occupied set
        ref = 0b00001111
        for l in (3, 4):
            for spect in itertools.combinations(range(4), l):
                original = e_term(spect, spect, SMALL)
                out = cumulant_decompose(original, KAPPA, ref)
                before = diagonal_element(original, ref)
                after = diagonal_element(out, ref)
                assert abs(before - 1.0 * SMALL) < 1e-15
                assert abs(before - after) < 1e-12

    def test_mixed_terms_preserve_hf_expectation(self):
        # pure parts annihilate the reference on both sides
        ref = 0b00001111
        original = e_term((4, 1, 2), (5, 1, 2), SMALL)
        out = cumulant_decompose(original, KAPPA, ref)
        assert abs(diagonal_element(original, ref) - diagonal_element(out, ref)) < 1e-14


class TestRankReduction:
    def test_output_rank_at_most_max_of_two_and_pure_rank(self):
        ref = 0b00111111
        op = FermionOperator()
        op = plus(op, e_term((6, 1, 2, 3), (7, 1, 2, 3), SMALL))       # m=1, l=3
        op = plus(op, e_term((0, 1, 2, 3), (0, 1, 2, 3), SMALL))       # m=0, l=4
        op = plus(op, e_term((6, 7, 1, 2), (4, 5, 1, 2), SMALL))       # m=2, l=2
        out = cumulant_decompose(op, KAPPA, ref)
        for key in out.terms:
            pure_cre, _, spect = classify_indices(key)
            assert excitation_rank(key) <= max(2, len(pure_cre))
        assert max_rank(out) <= 2


def test_respects_canonical_signs():
    # interleaved pure/spectator indices exercise the factored-form parity
    ref = 0b00001111
    combined = e_term((4, 0, 3), (5, 0, 3), SMALL)
    out = cumulant_decompose(combined, KAPPA, ref)
    expected = plus(e_term((4, 0), (5, 0), SMALL / 2), e_term((4, 3), (5, 3), SMALL / 2))
    for k in set(out.terms) | set(expected.terms):
        assert abs(out.terms.get(k, 0.0) - expected.terms.get(k, 0.0)) < 1e-14
