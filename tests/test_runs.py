import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qjacobi
from qjacobi import jacobi, statevector
from qjacobi.cli import main
from qjacobi.jacobi import QJRunError, RunConfig, run_quantum_jacobi
from qjacobi.statevector import Sector, apply_circuit
from support import (embed_in_full_space, exact_trace_digests, expectation_exact, fidelity,
                     hf_energy, prepare_determinant, sampled_trace_digest)


def energies(trace):
    return trace.energies()


class TestConvergence:
    def test_h2_exact_fermionic_hits_fci(self, h2, h2_fci, h2_exact_trace):
        assert abs(h2_exact_trace.final_energy - h2_fci[0]) < 1e-8
        assert h2_exact_trace.cycles <= 10

    def test_h2_exact_pauli_hits_fci(self, h2, h2_fci):
        trace = run_quantum_jacobi(h2, RunConfig(method="exact-bch-pauli", max_cycles=10))
        assert abs(trace.final_energy - h2_fci[0]) < 1e-8

    def test_h4_exact_fermionic_converges(self, h4_fci, h4_exact_trace):
        assert abs(h4_exact_trace.final_energy - h4_fci[0]) < 1e-6
        assert h4_exact_trace.cycles <= 200

    def test_h4_truncated_reach_chemical_accuracy(self, h4_fci, h4_fqj_trace, h4_cfqj_trace):
        for trace in (h4_fqj_trace, h4_cfqj_trace):
            assert abs(trace.final_energy - h4_fci[0]) < 1.6e-3


class TestInvariants:
    def test_monotone_noiseless_all_methods(self, h2, h4_exact_trace, h4_fqj_trace,
                                            h4_cfqj_trace):
        traces = [h4_exact_trace, h4_fqj_trace, h4_cfqj_trace,
                  run_quantum_jacobi(h2, RunConfig(method="pqj", epsilon=1e-5, max_cycles=30))]
        for trace in traces:
            es = energies(trace)
            assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))

    def test_first_record_is_hf(self, h2_data, h2_exact_trace):
        assert abs(h2_exact_trace.hf_energy - hf_energy(h2_data)) < 1e-12

    def test_expectation_accounting_two_per_cycle(self, h4_exact_trace):
        for rec in h4_exact_trace.records:
            assert rec.expectation_values == 2 * rec.k

    def test_residual_norm_systematic_reduction_exact_deterministic(self, h4_exact_trace):
        # The Jacobi theorem bounds the full off-diagonal norm, not one row;
        # the row residual decays systematically but admits small upticks when
        # column mixing feeds the remaining couplings.
        norms = [r.residual_norm for r in h4_exact_trace.records[1:]
                 if r.phase == "deterministic"]
        assert norms[-1] < norms[0] / 100.0
        steps = list(zip(norms, norms[1:]))
        decreasing = sum(1 for a, b in steps if b < a)
        assert decreasing >= 0.8 * len(steps)
        assert all(b < 1.1 * a for a, b in steps)

    def test_residual_norm_strictly_decreases_on_h2(self, h2):
        trace = run_quantum_jacobi(h2, RunConfig(method="exact-bch-fermionic", max_cycles=10))
        norms = [r.residual_norm for r in trace.records[1:]]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_heisenberg_schroedinger_consistency(self, h4, h4_exact_trace):
        # classical <Phi0|H^(k)|Phi0> equals the circuit-state expectation of
        # the original H after every prefix of steps
        from qjacobi.fermion import FermionGenerator
        from qjacobi.jacobi import generator_from_determinant
        from qjacobi.statevector import Circuit, GivensStep
        circuit = Circuit()
        phi0 = prepare_determinant(h4.n_qubits, h4.hf_determinant)
        for rec in h4_exact_trace.records[1:]:
            gen = generator_from_determinant(h4.hf_determinant, rec.pick_determinant,
                                             FermionGenerator)
            circuit = circuit.appended(GivensStep(gen, rec.theta))
            ev = expectation_exact(h4.hamiltonian, apply_circuit(phi0, circuit))
            assert abs(ev - rec.energy) < 1e-9

    def test_final_circuit_reproduces_energy(self, h4, h4_exact_trace):
        phi0 = prepare_determinant(h4.n_qubits, h4.hf_determinant)
        state = apply_circuit(phi0, h4_exact_trace.final_circuit)
        assert abs(expectation_exact(h4.hamiltonian, state)
                   - h4_exact_trace.final_energy) < 1e-9

    def test_converged_state_fidelity_with_fci(self, h4, h4_fci, h4_exact_trace):
        energy, vec, basis = h4_fci
        full = embed_in_full_space(vec, basis, h4.n_qubits)
        phi0 = prepare_determinant(h4.n_qubits, h4.hf_determinant)
        state = apply_circuit(phi0, h4_exact_trace.final_circuit)
        assert fidelity(state, full) > 1.0 - 1e-6


class TestTermination:
    def test_zero_cycles_gives_hf_only(self, h2):
        trace = run_quantum_jacobi(h2, RunConfig(method="exact-bch-fermionic", max_cycles=0))
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    def test_max_cycles_respected(self, h2):
        trace = run_quantum_jacobi(
            h2, RunConfig(method="exact-bch-fermionic", max_cycles=1, energy_floor=0.0))
        assert trace.cycles == 1 and trace.termination == "max_cycles"

    def test_trace_line_count(self, h4_cfqj_trace):
        assert len(h4_cfqj_trace.records) == h4_cfqj_trace.cycles + 1


class TestStochasticPhase:
    def test_truncated_runs_switch(self, h4_fqj_trace, h4_cfqj_trace):
        for trace in (h4_fqj_trace, h4_cfqj_trace):
            assert trace.k_c is not None and trace.k_c > 0
            phases = [r.phase for r in trace.records[1:]]
            # deterministic before k_c, stochastic from k_c on, never back
            for rec in trace.records[1:]:
                assert rec.phase == ("deterministic" if rec.k < trace.k_c else "stochastic")

    def test_exact_run_stays_deterministic(self, h4_exact_trace):
        assert h4_exact_trace.k_c is None
        assert all(r.phase == "deterministic" for r in h4_exact_trace.records)

    def test_no_consecutive_repeats_in_stochastic_phase(self, h4_cfqj_trace):
        picks = [r.pick_determinant for r in h4_cfqj_trace.records[1:]]
        ks = [r.k for r in h4_cfqj_trace.records[1:]]
        for i in range(1, len(picks)):
            if ks[i] >= h4_cfqj_trace.k_c:
                assert picks[i] != picks[i - 1]


class TestDeterminism:
    def test_identical_seed_identical_trace(self, h4):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=60, rng_seed=19,
                   shots_per_term=1000)
        a = run_quantum_jacobi(h4, RunConfig(**cfg))
        b = run_quantum_jacobi(h4, RunConfig(**cfg))
        assert a.to_jsonl() == b.to_jsonl()

    def test_different_seed_diverges_after_switch(self, h4):
        base = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=80)
        a = run_quantum_jacobi(h4, RunConfig(rng_seed=1, **base))
        b = run_quantum_jacobi(h4, RunConfig(rng_seed=2, **base))
        k_c = min(a.k_c, b.k_c)
        for ra, rb in zip(a.records, b.records):
            if ra.k >= k_c:
                break
            assert ra.to_json() == rb.to_json()

    def test_sampled_pauli_traces_unchanged(self, h4):
        # the h4-pqj-shots benchmark runs: shot-sampled pqj is chaotic, so any
        # change to its arithmetic, however small, changes these hashes
        expected = {7: "211c68e27d21c1931f51fd3788f13afe943d74b780fba7c162f6487cee2c4d1d",
                    8: "80c6a0e8e2ef18e8964b9384e7c86b335776f0c253cbd63a0f2d9aff8b3c64b1"}
        for seed, digest in expected.items():
            trace = run_quantum_jacobi(h4, RunConfig(
                method="pqj", epsilon=1e-4, max_cycles=300, shots_per_term=1000,
                rng_seed=seed, merge_threshold=1e-2))
            assert hashlib.sha256(trace.to_jsonl().encode("ascii")).hexdigest() == digest


class TestBlasKernels:
    def test_traces_independent_of_openblas_kernel(self):
        # neither exact nor sampled values take a BLAS call, so a process
        # whose OpenBLAS runs another kernel (OPENBLAS_CORETYPE acts on one
        # process) writes the same traces
        fixture = pathlib.Path(__file__).parent / "fixtures" / "h4_linear_1.5.fcidump"
        path = [str(pathlib.Path(qjacobi.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
        path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        code = ("import sys, support; print(*support.exact_trace_digests(sys.argv[1]), "
                "support.sampled_trace_digest(sys.argv[1]))")
        procs = {core: subprocess.Popen(
            [sys.executable, "-c", code, str(fixture)], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_CORETYPE=core))
            for core in ("Prescott", "Sandybridge")}
        try:
            expected = exact_trace_digests(fixture) + [sampled_trace_digest(fixture)]
            for core, proc in procs.items():
                out, _ = proc.communicate(timeout=120)
                assert proc.returncode == 0, core
                assert out.split() == expected, core
        finally:
            for proc in procs.values():
                proc.kill()
                proc.wait()


class TestShotNoise:
    def test_sampled_run_completes_and_accounts(self, h4):
        cfg = RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=10,
                        rng_seed=4, shots_per_term=2000)
        trace = run_quantum_jacobi(h4, cfg)
        last = trace.records[-1]
        assert last.expectation_values == 2 * trace.cycles
        assert last.shots_used > 0
        assert last.shots_used % (2000 * trace.cycles) == 0

    def test_classical_residual_never_sampled(self, h4):
        # identical selection path for different shot budgets until the first
        # angle actually differs
        a = run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=1, rng_seed=4, shots_per_term=10))
        b = run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=1, rng_seed=4))
        assert a.records[1].pick_determinant == b.records[1].pick_determinant


class TestLargerChain:
    def test_h6_twelve_qubit_smoke(self):
        # 12-qubit end-to-end sanity: monotone descent below HF and the
        # residual weight spreading over more determinants as cycles pass
        import pathlib

        from qjacobi.diagnostics import WeightDistribution, participation_ratio
        from qjacobi.fcidump import parse_fcidump
        from qjacobi.hamiltonian import build_hamiltonian

        path = pathlib.Path(__file__).parent / "fixtures" / "h6_linear_1.5.fcidump"
        problem = build_hamiltonian(parse_fcidump(path.read_text()))
        trace = run_quantum_jacobi(
            problem, RunConfig(method="cfqj", epsilon=1e-3, max_cycles=15, rng_seed=3))
        es = energies(trace)
        assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))
        assert trace.final_energy < trace.hf_energy - 0.1
        prs = [participation_ratio(WeightDistribution.from_amplitudes(
            r.residual_magnitudes.values())) for r in trace.records[1:]]
        assert prs[-1] > prs[0]


class TestConfigValidation:
    def test_kappa_only_for_cfqj(self):
        with pytest.raises(ValueError):
            RunConfig(method="fqj", epsilon=1e-4, kappa=1e-3).validate()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            RunConfig(method="vqe").validate()

    def test_default_kappa_is_ten_epsilon(self):
        cfg = RunConfig(method="cfqj", epsilon=1e-4)
        assert cfg.effective_kappa() == pytest.approx(1e-3)

    def test_energy_floor_finite_nonnegative(self):
        for bad in (float("nan"), float("inf"), -1e-9):
            with pytest.raises(ValueError, match="energy_floor"):
                RunConfig(method="cfqj", epsilon=1e-4, energy_floor=bad).validate()
        RunConfig(method="cfqj", epsilon=1e-4, energy_floor=0.0).validate()

    @pytest.mark.parametrize("field, bad", [
        ("max_cycles", 2.7), ("max_cycles", -1), ("max_cycles", None),
        ("shots_per_term", 2.5), ("shots_per_term", 0),
        ("rng_seed", 1.5), ("rng_seed", -1), ("rng_seed", None),
    ])
    def test_counts_are_ints(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RunConfig(method="pqj", epsilon=1e-4, **{field: bad}).validate()

    def test_counts_accept_numpy_ints(self):
        RunConfig(method="pqj", epsilon=1e-4, max_cycles=np.int64(3),
                  shots_per_term=np.int64(10), rng_seed=np.int64(0)).validate()


class TestStageFailures:
    @pytest.mark.parametrize("stage, label, error", [
        ("classical_residual", "residual_error", FloatingPointError),
        ("transform_hamiltonian", "conjugation_error", ValueError),
        ("select_deterministic", "selection_error", ValueError),
        ("solve_givens", "angle_error", FloatingPointError),
        ("merge_step", "angle_error", ValueError),
        ("generator_from_determinant", "selection_error", ValueError),
    ])
    def test_failure_at_cycle_three_keeps_partial_trace(self, h4, monkeypatch, stage, label,
                                                        error):
        real = getattr(jacobi, stage)
        calls = []

        def fail_on_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise error("injected")
            return real(*args)

        monkeypatch.setattr(jacobi, stage, fail_on_third_call)
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination == f"{label}: injected"
        assert len(trace.final_circuit) == 2

    @staticmethod
    def expectation_failing_on_fifth_call(monkeypatch, failure):
        # the device measures each row of a block's stacked replay through
        # the module-level expectation_exact, so its fifth call is cycle 3's
        # first expectation value
        real = statevector.expectation_exact
        calls = []

        def expectation(*args):
            calls.append(args)
            if len(calls) == 5:
                return failure()
            return real(*args)

        monkeypatch.setattr(statevector, "expectation_exact", expectation)

    def test_non_finite_expectation_is_a_backend_error(self, h4, monkeypatch):
        # cycle 3's first expectation value is NaN: the run ends as a backend
        # failure with cycles 0-2 kept, not in the angle solve or GivensStep
        self.expectation_failing_on_fifth_call(monkeypatch, lambda: float("nan"))
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination.startswith("backend_error: non-finite expectation value")
        assert len(trace.final_circuit) == 2

    def test_norm_drift_on_the_sector_is_a_backend_error(self, h4, monkeypatch):
        # each block replay looks up one map per candidate state, then one
        # stacked map per circuit step: from the sixth lookup on (cycle 3's
        # first state) the sector map's weights are 1% too large, so the
        # per-step norm check trips
        real = statevector._rotation_map
        sectors = []

        def drifting(gen, sector, rows):
            sectors.append(sector)
            out, src, weight = real(gen, sector, rows)
            return out, src, weight * 1.01 if len(sectors) > 5 else weight

        monkeypatch.setattr(statevector, "_rotation_map", drifting)
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
        assert set(sectors) == {Sector(h4.n_qubits, h4.n_electrons, 2)}
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination.startswith("backend_error: statevector norm drifted")
        assert len(trace.final_circuit) == 2

    def test_spin_flip_generator_is_a_backend_error(self, h4, monkeypatch):
        # the run replays on the (N, S_z) sector; a generator injected at
        # cycle 3 that moves a beta electron (mode 1) to an alpha orbital
        # (mode 4) would leave it, and its map compile refuses it
        real = jacobi.generator_from_determinant
        calls = []

        def spin_flip_on_third_call(phi0, pick, flavor):
            calls.append(pick)
            if len(calls) == 3:
                return flavor.from_determinants(phi0, phi0 ^ 0b10010)
            return real(phi0, pick, flavor)

        monkeypatch.setattr(jacobi, "generator_from_determinant", spin_flip_on_third_call)
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination == ("backend_error: generator ((4,), (1,)) leaves the "
                                     "S_z sector")
        assert len(trace.final_circuit) == 2

    def test_norm_drift_on_the_full_register_is_a_backend_error(self, h4, monkeypatch):
        # the same drift on a Pauli run, whose steps replay on the full
        # register, one register per candidate state and a stack of two for
        # the circuit: from the sixth lookup on the string's factors are 1%
        # too large
        real = statevector._pauli_map
        shapes = []

        def drifting(key, shape):
            shapes.append(shape)
            src, factor = real(key, shape)
            return src, factor * 1.01 if len(shapes) > 5 else factor

        monkeypatch.setattr(statevector, "_pauli_map", drifting)
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="pqj", epsilon=1e-4, max_cycles=10))
        assert set(shapes) == {(1 << h4.n_qubits,), (2, 1 << h4.n_qubits)}
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination.startswith("backend_error: statevector norm drifted")
        assert len(trace.final_circuit) == 2

    def test_nan_in_the_replay_is_a_norm_drift(self, h4, monkeypatch):
        # the sector map's weights turn NaN from the sixth lookup on: the
        # per-step norm check reports it, before any expectation value does
        real = statevector._rotation_map
        lookups = []

        def poisoned(gen, sector, rows):
            lookups.append(rows)
            out, src, weight = real(gen, sector, rows)
            return out, src, weight * np.nan if len(lookups) > 5 else weight

        monkeypatch.setattr(statevector, "_rotation_map", poisoned)
        with pytest.raises(QJRunError) as info:
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
        trace = info.value.trace
        assert len(trace.records) == 3
        assert trace.termination.startswith("backend_error: statevector norm drifted to nan")
        assert len(trace.final_circuit) == 2

    def test_non_finite_expectation_aborts_cli_run(self, monkeypatch, capsys):
        self.expectation_failing_on_fifth_call(monkeypatch, lambda: float("nan"))
        fcidump = pathlib.Path(__file__).parent / "fixtures" / "h4_linear_1.5.fcidump"
        code = main(["run", "--fcidump", str(fcidump), "--method", "cfqj", "--epsilon", "1e-4",
                     "--max-cycles", "10", "--skip-fci"])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("qjacobi-error: run-aborted: non-finite")

    def test_programming_error_in_backend_propagates(self, h4, monkeypatch):
        def fail():
            raise TypeError("injected")

        self.expectation_failing_on_fifth_call(monkeypatch, fail)
        with pytest.raises(TypeError, match="injected"):
            run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                             max_cycles=10))
