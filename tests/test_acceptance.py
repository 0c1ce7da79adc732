"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm

from qjacobi.cumulant import cumulant_decompose
from qjacobi.diagnostics import (WeightDistribution, participation_ratio,
                                 shannon_entropy, topk_mass)
from qjacobi.fermion import FermionGenerator, FermionOperator, bch_transform
from qjacobi.jacobi import (EffectiveBlock, RunConfig, diagonal_element,
                            generator_from_determinant, merge_step,
                            run_quantum_jacobi, solve_givens)
from qjacobi.jordan_wigner import jordan_wigner
from qjacobi.pauli import PauliGenerator, PauliOperator, bch_transform_pauli
from qjacobi.statevector import (Circuit, GivensStep, apply_circuit,
                                 apply_fermionic_rotation, apply_step)
from support import (dense_matrix, expectation_exact, expectation_sampled, fidelity,
                     generator_operator, normal_op, prepare_determinant)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_1_bch_exactness():
    with criterion(1, "BCH closed forms match dense conjugation (1e-10, <1 min)"):
        start = time.monotonic()
        rng = random.Random(2024)
        n = 4
        worst_f = worst_p = 0.0
        for _ in range(200):
            r = rng.randint(1, 2)
            key = (tuple(sorted(rng.sample(range(n), r))),
                   tuple(sorted(rng.sample(range(n), r))))
            while True:
                rg = rng.randint(1, 2)
                pool = list(range(n))
                rng.shuffle(pool)
                gkey = (tuple(sorted(pool[:rg])), tuple(sorted(pool[rg:2 * rg])))
                if not set(gkey[0]) & set(gkey[1]):
                    break
            theta = rng.uniform(-math.pi, math.pi)
            gen = FermionGenerator(gkey, rng.choice((1, -1)))
            out = bch_transform(FermionOperator({key: 1.0}), gen, theta)
            a = dense_matrix(generator_operator(gen), n)
            e = dense_matrix(FermionOperator({key: 1.0}), n)
            ref = expm(-theta * a) @ e @ expm(theta * a)
            worst_f = max(worst_f, float(np.max(np.abs(dense_matrix(out, n) - ref))))

            pkey = (rng.getrandbits(n), rng.getrandbits(n))
            xm = rng.randint(1, 2 ** n - 1)
            pgen = PauliGenerator(xm, xm & -xm)
            pout = bch_transform_pauli(PauliOperator({pkey: 1.0}), pgen, theta)
            p = dense_matrix(PauliOperator({pkey: 1.0}), n)
            g = dense_matrix(PauliOperator({pgen.key: 1.0}), n)
            pref = expm(-1j * theta * g) @ p @ expm(1j * theta * g)
            worst_p = max(worst_p, float(np.max(np.abs(dense_matrix(pout, n) - pref))))
        elapsed = time.monotonic() - start
        assert worst_f < 1e-10, worst_f
        assert worst_p < 1e-10, worst_p
        assert elapsed < 60.0, elapsed


def _replay_consistency(problem, trace, flavor):
    circuit = Circuit()
    phi0 = prepare_determinant(problem.n_qubits, problem.hf_determinant)
    worst = 0.0
    for rec in trace.records[1:]:
        gen = generator_from_determinant(problem.hf_determinant, rec.pick_determinant, flavor)
        circuit = circuit.appended(GivensStep(gen, rec.theta))
        ev = expectation_exact(problem.hamiltonian, apply_circuit(phi0, circuit))
        worst = max(worst, abs(ev - rec.energy))
    return worst


def test_criterion_2_heisenberg_schroedinger(h2, h4, h2_exact_trace, h4_exact_trace):
    with criterion(2, "classical <Phi0|H^(k)|Phi0> equals circuit expectation (1e-9)"):
        assert _replay_consistency(h2, h2_exact_trace, FermionGenerator) < 1e-9
        assert _replay_consistency(h4, h4_exact_trace, FermionGenerator) < 1e-9


def test_criterion_3_convergence_to_fci(h2, h4, h2_fci, h4_fci):
    with criterion(3, "exact-BCH convergence: H2 1e-8/10 cycles, H4 1e-6/200 cycles, monotone"):
        start = time.monotonic()
        tr2 = run_quantum_jacobi(h2, RunConfig(method="exact-bch-fermionic", max_cycles=10))
        tr4 = run_quantum_jacobi(h4, RunConfig(method="exact-bch-fermionic", max_cycles=200))
        elapsed = time.monotonic() - start
        assert abs(tr2.final_energy - h2_fci[0]) < 1e-8
        assert tr2.cycles <= 10
        assert abs(tr4.final_energy - h4_fci[0]) < 1e-6
        assert tr4.cycles <= 200
        for tr in (tr2, tr4):
            es = tr.energies()
            assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))
        assert elapsed < 600.0, elapsed


def test_criterion_4_chemical_accuracy_with_compression(h4_fci, h4_fqj_trace, h4_cfqj_trace):
    with criterion(4, "cfqj/fqj reach 1.6e-3 on H4; cfqj at most as many terms in >=80% of cycles"):
        assert abs(h4_fqj_trace.final_energy - h4_fci[0]) < 1.6e-3
        assert abs(h4_cfqj_trace.final_energy - h4_fci[0]) < 1.6e-3
        common = min(h4_fqj_trace.cycles, h4_cfqj_trace.cycles)
        wins = sum(
            1 for k in range(1, common + 1)
            if h4_cfqj_trace.records[k].term_count <= h4_fqj_trace.records[k].term_count)
        assert wins >= 0.8 * common, (wins, common)


def test_criterion_5_angle_solve_oracle():
    with criterion(5, "10^4 random 2x2 blocks: e_next = min eigenvalue, off-diagonal zeroed (1e-12)"):
        rng = random.Random(77)
        for i in range(10_000):
            e0 = rng.uniform(-3, 3)
            e1 = e0 if i % 7 == 0 else rng.uniform(-3, 3)  # degenerate included
            c = 0.0 if i % 11 == 0 else rng.uniform(-2, 2)
            block = EffectiveBlock(e0, e1, c)
            theta, e_next = solve_givens(block)
            m = np.array([[e0, c], [c, e1]])
            assert abs(e_next - np.linalg.eigvalsh(m)[0]) < 1e-12
            g = np.array([[math.cos(theta), -math.sin(theta)],
                          [math.sin(theta), math.cos(theta)]])
            rot = g.T @ m @ g
            assert abs(rot[0, 1]) < 1e-12


def test_criterion_6_cumulant_hf_expectation():
    with criterion(6, "cumulant preserves HF expectation for all-spectator terms up to l=4 (1e-12)"):
        kappa, coeff = 1e-3, 1e-4
        for n_occ in (4, 6):
            ref = (1 << n_occ) - 1
            for l in (1, 2, 3, 4):
                for spect in itertools.combinations(range(n_occ), l):
                    events = [(p, True) for p in spect] + [(q, False) for q in reversed(spect)]
                    op = normal_op(events, coeff)
                    out = cumulant_decompose(op, kappa, ref)
                    before = diagonal_element(op, ref)
                    after = diagonal_element(out, ref)
                    assert abs(before - after) < 1e-12, (spect, before, after)


def test_criterion_7_shot_noise_statistics(h2):
    with criterion(7, "sampled estimator unbiased (3 SE, 200 seeds); std ratio 1e3:1e5 = 10 +-20%"):
        hp = jordan_wigner(h2.hamiltonian)
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        state = apply_fermionic_rotation(
            prepare_determinant(h2.n_qubits, h2.hf_determinant), gen, 0.4)
        exact = expectation_exact(h2.hamiltonian, state)
        vals = [expectation_sampled(hp, state, 200, rng=seed) for seed in range(200)]
        mean, std = float(np.mean(vals)), float(np.std(vals, ddof=1))
        assert abs(mean - exact) < 3 * std / math.sqrt(len(vals))
        lo = np.std([expectation_sampled(hp, state, 1_000, rng=s) for s in range(200)], ddof=1)
        hi = np.std([expectation_sampled(hp, state, 100_000, rng=s + 50_000)
                     for s in range(200)], ddof=1)
        assert abs(lo / hi - 10.0) < 2.0, lo / hi


def test_criterion_8_angle_merging(h4_merge_family):
    with criterion(8, "merge 1e-2: energy within 1e-3 of unmerged, CNOT >= 2x, quadratic scaling"):
        unmerged = h4_merge_family[None]
        merged = h4_merge_family[1e-2]
        assert abs(merged.final_energy - unmerged.final_energy) < 1e-3
        assert unmerged.records[-1].cnot_estimate >= 2 * merged.records[-1].cnot_estimate
        for threshold in (1e-3, 5e-3, 1e-2):
            run = h4_merge_family[threshold]
            bound = max(1e-3, 10.0 * threshold ** 2 * len(run.final_circuit.steps))
            assert abs(run.final_energy - unmerged.final_energy) <= bound
        # controlled single-merge experiment: state infidelity scales as theta^2
        g1 = FermionGenerator.from_determinants(0b0011, 0b0101)
        g2 = FermionGenerator.from_determinants(0b0011, 0b1100)
        thetas = (1e-3, 5e-3, 1e-2)
        devs = []
        for theta in thetas:
            base = Circuit((GivensStep(g1, 0.4), GivensStep(g2, 0.9)))
            merged_c, did = merge_step(base, GivensStep(g1, theta), 2e-2)
            assert did
            s = prepare_determinant(4, 0b0011)
            ref = apply_step(s, GivensStep(g1, theta))
            ref = apply_step(ref, GivensStep(g2, 0.9))
            ref = apply_step(ref, GivensStep(g1, 0.4))
            devs.append(1.0 - fidelity(apply_circuit(s, merged_c), ref))
        consts = [dev / t ** 2 for dev, t in zip(devs, thetas)]
        assert max(consts) / min(consts) < 1.1, consts


def test_criterion_9_diagnostics_exactness():
    with criterion(9, "entropy/PR/top-K closed forms (1e-12); M_k monotone"):
        for n in (2, 10, 64):
            u = WeightDistribution.from_weights([1.0 / n] * n)
            assert abs(shannon_entropy(u) - 1.0) < 1e-12
            assert abs(participation_ratio(u) - n) < 1e-9
            for k in (1, n // 2, n):
                if k:
                    assert abs(topk_mass(u, k) - k / n) < 1e-12
        spike = WeightDistribution.from_weights([1.0])
        assert shannon_entropy(spike) == 0.0
        assert participation_ratio(spike) == 1.0
        assert topk_mass(spike, 1) == 1.0
        d = WeightDistribution.from_weights([0.5, 0.25, 0.25])
        assert abs(shannon_entropy(d) - (1.5 * math.log(2)) / math.log(3)) < 1e-12
        assert abs(participation_ratio(d) - 1.0 / 0.375) < 1e-12
        assert abs(topk_mass(d, 1) - 0.5) < 1e-12
        assert abs(topk_mass(d, 2) - 0.75) < 1e-12
        rng = random.Random(13)
        for _ in range(50):
            amps = [rng.uniform(-1, 1) for _ in range(rng.randint(2, 40))]
            dist = WeightDistribution.from_amplitudes(amps)
            masses = [topk_mass(dist, k) for k in range(1, dist.support_size + 1)]
            assert all(b >= a for a, b in zip(masses, masses[1:]))
            assert masses[-1] == 1.0


def test_criterion_10_determinism(h4):
    with criterion(10, "identical seed + config => byte-identical trace"):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=70,
                   rng_seed=23, shots_per_term=300, merge_threshold=1e-2)
        a = run_quantum_jacobi(h4, RunConfig(**cfg))
        b = run_quantum_jacobi(h4, RunConfig(**cfg))
        assert a.to_jsonl().encode() == b.to_jsonl().encode()


def test_criterion_11_growth_saturation_structure(h4_exact_trace, h4_fqj_trace, h4_cfqj_trace):
    with criterion(11, "term count grows then plateaus while energy decreases; k_c > 0 when truncated"):
        counts = [r.term_count for r in h4_exact_trace.records]
        energies = h4_exact_trace.energies()
        peak = max(counts)
        plateau_start = next(i for i, c in enumerate(counts) if c >= 0.95 * peak)
        # growth phase ends well before the run does
        assert plateau_start < len(counts) / 2
        plateau = counts[plateau_start:]
        assert min(plateau) >= 0.9 * peak
        # energy keeps decreasing after the count saturates
        assert energies[-1] < energies[plateau_start] - 1e-6
        for trace in (h4_fqj_trace, h4_cfqj_trace):
            assert trace.k_c is not None and trace.k_c > 0
