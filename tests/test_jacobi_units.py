import math
import random

import numpy as np
import pytest

from qjacobi import fci
from qjacobi.fermion import FermionGenerator, FermionOperator, bch_transform
from qjacobi.jacobi import (EffectiveBlock, ResidualVector, RunConfig,
                            classical_residual, diagonal_element,
                            estimate_cnot_count,
                            generator_from_determinant, measure_block,
                            merge_step, select_deterministic,
                            select_stochastic, solve_givens,
                            transform_hamiltonian, truncate)
from qjacobi.jordan_wigner import jordan_wigner
from qjacobi.pauli import PAULI_IDENTITY, PauliGenerator, PauliOperator
from qjacobi.statevector import Circuit, GivensStep, StatevectorBackend, apply_circuit, apply_step
from support import apply_excitation, dense_matrix, fidelity, hf_energy, prepare_determinant


class TestClassicalResidual:
    def test_eigenstate_gives_empty_residual(self):
        # diagonal Hamiltonian: any determinant is an eigenstate
        h = FermionOperator({((0,), (0,)): -1.0, ((1,), (1,)): 0.5}, constant=0.2)
        r = classical_residual(h, 0b01)
        assert not r.entries
        assert abs(r.reference_energy - (-0.8)) < 1e-14

    def test_single_excitation_term(self):
        h = FermionOperator({((2,), (0,)): 0.7})
        r = classical_residual(h, 0b0011)
        assert set(r.entries) == {0b0110}
        assert abs(abs(r.entries[0b0110]) - 0.7) < 1e-14

    def test_matches_fci_matrix_row(self, h4):
        basis = fci.basis(h4.n_qubits, h4.n_electrons).tolist()
        mat = dense_matrix(h4.hamiltonian, h4.n_qubits, basis)
        col = basis.index(h4.hf_determinant)
        r = classical_residual(h4.hamiltonian, h4.hf_determinant)
        for i, det in enumerate(basis):
            if det == h4.hf_determinant:
                continue
            assert abs(mat[i, col].real - r.entries.get(det, 0.0)) < 1e-12

    def test_pauli_route_matches_fermionic(self, h2):
        rf = classical_residual(h2.hamiltonian, h2.hf_determinant)
        rp = classical_residual(jordan_wigner(h2.hamiltonian), h2.hf_determinant)
        keys = set(rf.entries) | set(rp.entries)
        for d in keys:
            assert abs(rf.entries.get(d, 0.0) - rp.entries.get(d, 0.0)) < 1e-12
        assert abs(rf.reference_energy - rp.reference_energy) < 1e-12


class TestSelection:
    def test_single_entry(self):
        r = ResidualVector({5: 0.3}, 0.0)
        assert select_deterministic(r) == 5

    def test_largest_magnitude_wins(self):
        r = ResidualVector({3: 0.2, 9: -0.5}, 0.0)
        assert select_deterministic(r) == 9

    def test_tie_breaks_to_lowest_bit_pattern(self):
        r = ResidualVector({12: 0.5, 3: -0.5}, 0.0)
        assert select_deterministic(r) == 3

    def test_h2_first_pick_matches_oracle(self, h2):
        basis = fci.basis(h2.n_qubits, h2.n_electrons).tolist()
        mat = dense_matrix(h2.hamiltonian, h2.n_qubits, basis)
        col = basis.index(h2.hf_determinant)
        couplings = {d: abs(mat[i, col]) for i, d in enumerate(basis)
                     if d != h2.hf_determinant}
        best = max(couplings, key=couplings.get)
        r = classical_residual(h2.hamiltonian, h2.hf_determinant)
        assert select_deterministic(r) == best

    def test_stochastic_probabilities(self):
        rng = np.random.default_rng(11)
        r = ResidualVector({1: 0.6, 2: 0.8, 7: 0.1}, 0.0)
        counts = {1: 0, 2: 0, 7: 0}
        n = 10_000
        for _ in range(n):
            counts[select_stochastic(r, exclude=7, rng=rng)] += 1
        assert counts[7] == 0
        p1 = 0.36 / (0.36 + 0.64)
        for det, p in ((1, p1), (2, 1 - p1)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[det] / n - p) < 3 * sigma

    def test_stochastic_empty_space_signals_convergence(self):
        rng = np.random.default_rng(0)
        r = ResidualVector({4: 0.2}, 0.0)
        assert select_stochastic(r, exclude=4, rng=rng) is None

    def test_stochastic_weights_normalized_over_reduced_space(self):
        r = ResidualVector({1: 0.6, 2: 0.8, 7: 0.1}, 0.0)
        pool = {d: c * c for d, c in r.entries.items() if d != 7}
        total = sum(pool.values())
        probs = [w / total for w in pool.values()]
        assert sum(probs) == pytest.approx(1.0, abs=1e-15)
        assert probs[0] == pytest.approx(0.36 / (0.36 + 0.64), abs=1e-15)


class TestGeneratorFromDeterminant:
    def test_pauli_masks(self):
        gen = generator_from_determinant(0b0011, 0b0101, PauliGenerator)
        assert gen.x_mask == 0b0110 and gen.z_mask == 0b0010

    def test_fermionic_amplitude_plus_one(self):
        gen = generator_from_determinant(0b0011, 0b0101, FermionGenerator)
        s = prepare_determinant(4, 0b0011)
        amp = (gen.sign * apply_excitation(s, gen.excitation))[0b0101]
        assert amp == 1.0

    def test_quarter_turn_reaches_target_both_flavors(self):
        for flavor in (PauliGenerator, FermionGenerator):
            gen = generator_from_determinant(0b0011, 0b1100, flavor)
            s = prepare_determinant(4, 0b0011)
            out = apply_step(s, GivensStep(gen, math.pi / 2))
            assert abs(abs(out[0b1100]) - 1.0) < 1e-12

    def test_popcount_mismatch_rejected(self):
        for flavor in (PauliGenerator, FermionGenerator):
            with pytest.raises(ValueError):
                generator_from_determinant(0b0011, 0b0111, flavor)


class TestMeasureBlock:
    def test_initial_e0_is_hf(self, h2, h2_data):
        backend = StatevectorBackend(h2.n_qubits, h2.hf_determinant, h2.hamiltonian)
        r = classical_residual(h2.hamiltonian, h2.hf_determinant)
        pick = select_deterministic(r)
        gen = generator_from_determinant(h2.hf_determinant, pick, FermionGenerator)
        e0 = diagonal_element(h2.hamiltonian, h2.hf_determinant)
        block = measure_block(Circuit(), gen, e0, backend)
        assert abs(block.e0 - hf_energy(h2_data)) < 1e-12
        assert backend.expectation_count == 2

    def test_block_matches_classical_transform(self, h4):
        # entries agree with the untruncated classically transformed Hamiltonian
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian)
        phi0 = h4.hf_determinant
        h_bar = h4.hamiltonian
        circuit = Circuit()
        energy = diagonal_element(h_bar, phi0)
        for _ in range(4):
            r = classical_residual(h_bar, phi0)
            pick = select_deterministic(r)
            gen = generator_from_determinant(phi0, pick, FermionGenerator)
            block = measure_block(circuit, gen, energy, backend)
            assert abs(block.e0 - diagonal_element(h_bar, phi0)) < 1e-9
            assert abs(block.e_mu - diagonal_element(h_bar, pick)) < 1e-9
            assert abs(block.c - r.entries[pick]) < 1e-9
            theta, e_next = solve_givens(block)
            circuit, _ = merge_step(circuit, GivensStep(gen, theta), None)
            h_bar = bch_transform(h_bar, gen, theta)
            energy = e_next

    def test_commuting_generator_gives_zero_coupling(self):
        # H diagonal on the generator's plane: c = 0 and theta = 0
        h = FermionOperator({((0,), (0,)): -1.0, ((2,), (2,)): 1.0})
        backend = StatevectorBackend(4, 0b0011, h)
        gen = generator_from_determinant(0b0011, 0b0110, FermionGenerator)
        e0 = diagonal_element(h, 0b0011)
        block = measure_block(Circuit(), gen, e0, backend)
        assert abs(block.c) < 1e-12
        theta, _ = solve_givens(EffectiveBlock(block.e0, block.e_mu, 0.0))
        assert theta == 0.0


def rotated_block(block, theta):
    g = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    m = np.array([[block.e0, block.c], [block.c, block.e_mu]])
    return g.T @ m @ g


class TestSolveGivens:
    def test_zero_coupling(self):
        assert solve_givens(EffectiveBlock(-1.0, 2.0, 0.0)) == (0.0, -1.0)
        assert solve_givens(EffectiveBlock(2.0, -1.0, 0.0)) == (0.0, -1.0)

    def test_pure_offdiagonal(self):
        theta, e_next = solve_givens(EffectiveBlock(0.0, 0.0, 1.0))
        assert abs(e_next + 1.0) < 1e-14
        rot = rotated_block(EffectiveBlock(0.0, 0.0, 1.0), theta)
        assert abs(rot[0, 0] + 1.0) < 1e-12 and abs(rot[0, 1]) < 1e-12

    def test_closed_form_value(self):
        theta, e_next = solve_givens(EffectiveBlock(-1.0, 1.0, 0.1))
        assert abs(e_next + math.sqrt(1.01)) < 1e-12
        rot = rotated_block(EffectiveBlock(-1.0, 1.0, 0.1), theta)
        assert abs(rot[0, 0] - e_next) < 1e-12 and abs(rot[0, 1]) < 1e-12

    def test_random_blocks_match_eigensolver(self):
        rng = random.Random(3)
        for _ in range(2000):
            e0, e1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            c = rng.uniform(-2, 2)
            if rng.random() < 0.1:
                e1 = e0  # force degenerate diagonals
            block = EffectiveBlock(e0, e1, c)
            theta, e_next = solve_givens(block)
            lo = np.linalg.eigvalsh(np.array([[e0, c], [c, e1]]))[0]
            assert abs(e_next - lo) < 1e-12
            rot = rotated_block(block, theta)
            assert abs(rot[0, 0] - e_next) < 1e-11
            assert abs(rot[0, 1]) < 1e-11


class TestTruncate:
    def test_epsilon_zero_is_identity(self, h2):
        out = truncate(h2.hamiltonian, 0.0, 2)
        assert out.terms == h2.hamiltonian.terms

    def test_amplitude_mode(self):
        # the identity string is kept whatever its size
        h = PauliOperator({PAULI_IDENTITY: 1e-6, (0, 0b01): 0.5, (0, 0b10): 1e-6})
        out = truncate(h, 1e-3, 2)
        assert list(out.terms) == [PAULI_IDENTITY, (0, 0b01)]

    def test_rank_rules(self):
        eps = 1e-3
        rank2 = (((0, 1), (0, 1)))
        rank3 = (((0, 1, 2), (0, 1, 2)))
        h = FermionOperator({rank2: eps / 2, rank3: eps / 2,
                             ((0, 1, 3), (0, 1, 3)): 2 * eps})
        out = truncate(h, eps, 4)
        assert rank2 in out.terms           # rank <= 2 kept unconditionally
        assert rank3 not in out.terms       # small rank-3 dropped
        assert ((0, 1, 3), (0, 1, 3)) in out.terms  # large rank-3 kept

    def test_rank_above_electron_count_always_dropped(self):
        rank3 = ((0, 1, 2), (0, 1, 2))
        h = FermionOperator({rank3: 100.0})
        out = truncate(h, 1e-3, 2)
        assert not out.terms


class TestTransformHamiltonian:
    def test_theta_zero_identity(self, h2):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        out = transform_hamiltonian(h2.hamiltonian, gen, 0.0,
                                    RunConfig("exact-bch-fermionic"), h2.hf_determinant)
        assert out.terms == h2.hamiltonian.terms

    def test_untruncated_isospectral(self, h2):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        out = transform_hamiltonian(h2.hamiltonian, gen, 0.8,
                                    RunConfig("exact-bch-fermionic"), h2.hf_determinant)
        before = np.linalg.eigvalsh(dense_matrix(h2.hamiltonian, 4))
        after = np.linalg.eigvalsh(dense_matrix(out, 4))
        assert np.max(np.abs(before - after)) < 1e-10


class TestMergeStep:
    def _h4_setup(self):
        g1 = FermionGenerator.from_determinants(0b0011, 0b0101)
        g2 = FermionGenerator.from_determinants(0b0011, 0b1100)
        return g1, g2

    def test_append_when_above_threshold(self):
        g1, _ = self._h4_setup()
        circuit, merged = merge_step(Circuit(), GivensStep(g1, 0.5), 1e-2)
        assert not merged and len(circuit) == 1

    def test_adjacent_repeat_merge_is_exact(self):
        g1, _ = self._h4_setup()
        base = Circuit((GivensStep(g1, 0.4),))
        merged_c, merged = merge_step(base, GivensStep(g1, 5e-3), 1e-2)
        assert merged and len(merged_c) == 1
        s = prepare_determinant(4, 0b0011)
        unmerged = apply_step(apply_step(s, GivensStep(g1, 5e-3)), GivensStep(g1, 0.4))
        assert np.max(np.abs(apply_circuit(s, merged_c) - unmerged)) < 1e-12

    def test_commuting_intervening_gate_merge_is_exact(self):
        g1, _ = self._h4_setup()
        g_disjoint = FermionGenerator.from_determinants(0b110000, 0b001100)
        base = Circuit((GivensStep(g1, 0.4), GivensStep(g_disjoint, 0.7)))
        merged_c, merged = merge_step(base, GivensStep(g1, 5e-3), 1e-2)
        assert merged
        s = prepare_determinant(6, 0b000011)
        unmerged = s
        for step in reversed(base.steps + (GivensStep(g1, 5e-3),)):
            pass
        unmerged = apply_step(s, GivensStep(g1, 5e-3))
        unmerged = apply_step(unmerged, GivensStep(g_disjoint, 0.7))
        unmerged = apply_step(unmerged, GivensStep(g1, 0.4))
        assert np.max(np.abs(apply_circuit(s, merged_c) - unmerged)) < 1e-12

    def test_noncommuting_intervening_gate_quadratic_error(self):
        # state deviation measured as infidelity; C fitted over the angle set
        g1, g2 = self._h4_setup()
        devs = []
        thetas = (1e-3, 5e-3, 1e-2)
        for theta in thetas:
            base = Circuit((GivensStep(g1, 0.4), GivensStep(g2, 0.9)))
            merged_c, merged = merge_step(base, GivensStep(g1, theta), 2e-2)
            assert merged
            s = prepare_determinant(4, 0b0011)
            unmerged = apply_step(s, GivensStep(g1, theta))
            unmerged = apply_step(unmerged, GivensStep(g2, 0.9))
            unmerged = apply_step(unmerged, GivensStep(g1, 0.4))
            devs.append(1.0 - fidelity(apply_circuit(s, merged_c), unmerged))
        consts = [dev / t ** 2 for dev, t in zip(devs, thetas)]
        assert max(consts) / min(consts) == pytest.approx(1.0, rel=0.05)
        assert all(dev <= 1.05 * consts[0] * t ** 2 for dev, t in zip(devs, thetas))

    def test_merges_into_earliest_occurrence(self):
        g1, g2 = self._h4_setup()
        base = Circuit((GivensStep(g1, 0.1), GivensStep(g2, 0.2), GivensStep(g1, 0.3)))
        merged_c, merged = merge_step(base, GivensStep(g1, 1e-3), 1e-2)
        assert merged
        assert merged_c.steps[0].angle == pytest.approx(0.1 + 1e-3)
        assert merged_c.steps[2].angle == 0.3


class TestCnotEstimate:
    def test_empty_circuit(self):
        assert estimate_cnot_count(Circuit()) == 0

    def test_single_qubit_rotation(self):
        gen = PauliGenerator(0b1, 0b1)
        assert estimate_cnot_count(Circuit((GivensStep(gen, 0.3),))) == 0

    def test_weight_four_staircase(self):
        gen = PauliGenerator(0b1111, 0b0001)
        assert estimate_cnot_count(Circuit((GivensStep(gen, 0.3),))) == 6

    def test_fermionic_step_expands_through_jw(self):
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        from qjacobi.jordan_wigner import jw_generator
        from qjacobi.pauli import pauli_weight
        expected = sum(2 * (pauli_weight(k) - 1) for k in jw_generator(gen).terms)
        assert estimate_cnot_count(Circuit((GivensStep(gen, 0.1),))) == expected
        # deterministic
        assert estimate_cnot_count(Circuit((GivensStep(gen, 0.1),))) == expected
