import math
import pathlib
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qjacobi import statevector
from qjacobi.fcidump import parse_fcidump
from qjacobi.fermion import FermionGenerator, FermionOperator, conjugate_key
from qjacobi.hamiltonian import build_hamiltonian
from qjacobi.jacobi import RunConfig, run_quantum_jacobi
from qjacobi.jordan_wigner import jordan_wigner
from qjacobi.pauli import PAULI_IDENTITY, PauliGenerator, PauliOperator
from qjacobi.statevector import (Circuit, GivensStep, Sector, StatevectorBackend,
                                 apply_circuit, apply_fermionic_rotation, apply_pauli_rotation,
                                 apply_step, compile_operator, compile_sampled)
from support import (apply_add_at, apply_excitation, dense_matrix, embed_in_full_space,
                     expectation_exact, expectation_sampled, fermionic_rotation_loop,
                     fermionic_step_two_pass, fidelity, generator_operator, hf_energy,
                     pauli_rotation_loop, pauli_step_flat, prepare_determinant)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def apply_pauli_string(state, key):
    """P . state, the phase i^popcount(x & z) times the string's map: the
    single-string kernel the sampled estimator and the Pauli replay are
    checked against."""
    x, z = key
    src, factor = statevector._pauli_map(key, state.shape)
    return (1j) ** ((x & z).bit_count() & 3) * factor * state[src]


def string_product(state, key):
    """s_i (P s)_i for a real state s, whose sum is <s|P|s>: the real part of
    the complex product, exactly 0 for a string with an odd number of Y's."""
    return (apply_pauli_string(state, key) * state).real


def term_loop(op, state):
    """H . state one term after another: the oracle for the compiled kernel."""
    acc = np.zeros_like(state)
    for key, coeff in op.terms.items():
        acc += coeff * apply_excitation(state, key)
    if op.constant:
        acc += op.constant * state
    return acc


def oracle_expectation(op, state):
    """<s|H|s> over the term loop, as one exactly rounded sum."""
    return math.fsum((state.conj() * term_loop(op, state)).real.tolist())


def sampled_loop(op, state, shots_per_term, rng):
    """The per-string sampling loop on a real state, each mean one
    ``np.add.reduce`` of a lone string product: the oracle for the compiled
    estimator."""
    total = 0.0
    for key, coeff in sorted(op.terms.items()):
        if abs(coeff.imag) > 1e-10:
            raise ValueError("sampled operator must have real coefficients")
        if key == PAULI_IDENTITY:
            total += coeff.real
            continue
        mean = float(np.add.reduce(string_product(state, key)))
        p_up = min(1.0, max(0.0, 0.5 * (1.0 + mean)))
        ups = int(rng.binomial(shots_per_term, p_up))
        total += coeff.real * (2.0 * ups / shots_per_term - 1.0)
    return total


class TestPrepare:
    def test_vacuum(self):
        s = prepare_determinant(4, 0)
        assert s[0] == 1.0 and np.count_nonzero(s) == 1

    def test_hf_two_electrons(self):
        s = prepare_determinant(4, 0b0011)
        assert s[3] == 1.0

    def test_norm_one(self):
        for det in (0, 5, 12):
            assert abs(np.linalg.norm(prepare_determinant(4, det)) - 1.0) < 1e-15


class TestPauliRotation:
    def test_identity_at_zero(self):
        s = prepare_determinant(2, 0b01)
        out = apply_pauli_rotation(s, PauliGenerator(0b10, 0b10), 0.0)
        assert np.allclose(out, s)

    def test_x_half_turn(self):
        # e^{i (pi/2) X} |0> = i |1> (raw string; generators proper carry a Y)
        s = prepare_determinant(1, 0)
        out = math.cos(math.pi / 2) * s + 1j * math.sin(math.pi / 2) * apply_pauli_string(s, (1, 0))
        assert abs(out[1] - 1j) < 1e-12

    def test_y_half_turn_generator(self):
        # the single-Y generator turns |0> into -|1> at theta = pi/2
        s = prepare_determinant(1, 0)
        out = apply_pauli_rotation(s, PauliGenerator(1, 1), math.pi / 2)
        assert abs(out[1] + 1.0) < 1e-12

    def test_same_generator_composition(self):
        gen = PauliGenerator(0b011, 0b001)
        s = prepare_determinant(3, 0b001)
        t1, t2 = 0.3, 0.45
        a = apply_pauli_rotation(apply_pauli_rotation(s, gen, t1), gen, t2)
        b = apply_pauli_rotation(s, gen, t1 + t2)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("theta", [0.77, -2.1, math.pi / 2])
    def test_bit_identical_to_string_product(self, theta):
        # the phase folded into the scalar gives the values of i sin P.state
        gen = PauliGenerator(0b1101, 0b0100)
        s = _random_state(4, 3)
        out = apply_pauli_rotation(s, gen, theta)
        old = math.cos(theta) * s + 1j * math.sin(theta) * apply_pauli_string(s, gen.key)
        assert np.array_equal(out, old)
        assert float(np.linalg.norm(old)) == math.sqrt(
            out.real.dot(out.real) + out.imag.dot(out.imag))

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=8) + 1j * rng.normal(size=8)
        s /= np.linalg.norm(s)
        out = apply_pauli_rotation(s, PauliGenerator(0b101, 0b001), 0.77)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestFermionicRotation:
    def test_identity_at_zero(self):
        s = prepare_determinant(4, 0b0011)
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        assert np.allclose(apply_fermionic_rotation(s, gen, 0.0), s)

    def test_quarter_turn_maps_to_target(self):
        gen = FermionGenerator.from_determinants(0b0011, 0b0101)
        s = prepare_determinant(4, 0b0011)
        out = apply_fermionic_rotation(s, gen, math.pi / 2)
        assert abs(abs(out[0b0101]) - 1.0) < 1e-12

    def test_matches_dense_exponential(self):
        rng = random.Random(2)
        for _ in range(25):
            n = 4
            pool = list(range(n))
            rng.shuffle(pool)
            r = rng.randint(1, 2)
            gen = FermionGenerator((tuple(sorted(pool[:r])), tuple(sorted(pool[r:2 * r]))),
                                   rng.choice((1, -1)))
            theta = rng.uniform(-3, 3)
            v = np.array([rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(2 ** n)])
            v /= np.linalg.norm(v)
            a = dense_matrix(generator_operator(gen), n)
            ref = expm(theta * a) @ v
            out = apply_fermionic_rotation(v, gen, theta)
            assert np.max(np.abs(out - ref)) < 1e-10

    def test_rotation_follows_givens_plane(self):
        # e^{theta A}|phi0> = cos|phi0> + sin|phi_mu> under the +1 orientation
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        s = prepare_determinant(4, 0b0011)
        out = apply_fermionic_rotation(s, gen, 0.3)
        assert abs(out[0b0011] - math.cos(0.3)) < 1e-12
        assert abs(out[0b1100] - math.sin(0.3)) < 1e-12


class TestCircuit:
    def test_application_order_newest_first(self):
        # two non-commuting fermionic steps distinguish the order
        g1 = FermionGenerator.from_determinants(0b0011, 0b0101)
        g2 = FermionGenerator.from_determinants(0b0011, 0b1100)
        circ = Circuit((GivensStep(g1, 0.4), GivensStep(g2, 0.9)))
        s = prepare_determinant(4, 0b0011)
        manual = apply_fermionic_rotation(apply_fermionic_rotation(s, g2, 0.9), g1, 0.4)
        assert np.allclose(apply_circuit(s, circ), manual)

    def test_angle_must_be_finite(self):
        g = PauliGenerator(1, 1)
        with pytest.raises(ValueError):
            GivensStep(g, float("nan"))


class TestExpectation:
    def test_hf_energy(self, h2_data, h2):
        s = prepare_determinant(h2.n_qubits, h2.hf_determinant)
        assert abs(expectation_exact(h2.hamiltonian, s) - hf_energy(h2_data)) < 1e-12

    def test_number_operator(self, h4):
        n_op = FermionOperator({((q,), (q,)): 1.0 for q in range(h4.n_qubits)})
        s = prepare_determinant(h4.n_qubits, h4.hf_determinant)
        assert abs(expectation_exact(n_op, s) - h4.n_electrons) < 1e-12

    def test_fci_vector(self, h2, h2_fci):
        energy, vec, basis = h2_fci
        full = embed_in_full_space(vec, basis, h2.n_qubits)
        assert abs(expectation_exact(h2.hamiltonian, full) - energy) < 1e-10

    def test_pauli_route_agrees(self, h2):
        rng = np.random.default_rng(4)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        a = expectation_exact(h2.hamiltonian, v)
        b = np.vdot(v, dense_matrix(jordan_wigner(h2.hamiltonian), h2.n_qubits) @ v).real
        assert abs(a - b) < 1e-10


class TestSampled:
    def test_eigenstate_exact_regardless_of_shots(self):
        # diagonal operator: every determinant is an eigenstate of every term;
        # on |01> Z0 reads -1 and Z0 Z1 reads -1: 1.5 - 0.25 + 0.5
        op = PauliOperator({(0, 0b01): 0.25, (0, 0b11): -0.5, (0, 0): 1.5})
        s = prepare_determinant(2, 0b01)
        val = expectation_sampled(op, s, shots_per_term=3, rng=7)
        assert val == 1.75

    def test_seed_reproducible(self, h2):
        hp = jordan_wigner(h2.hamiltonian)
        s = prepare_determinant(h2.n_qubits, h2.hf_determinant)
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        s = apply_fermionic_rotation(s, gen, 0.4)
        a = expectation_sampled(hp, s, 500, rng=123)
        b = expectation_sampled(hp, s, 500, rng=123)
        assert a == b

    def test_unbiased_within_three_se(self, h2):
        hp = jordan_wigner(h2.hamiltonian)
        s = prepare_determinant(h2.n_qubits, h2.hf_determinant)
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        s = apply_fermionic_rotation(s, gen, 0.4)
        exact = expectation_exact(h2.hamiltonian, s)
        vals = [expectation_sampled(hp, s, 200, rng=seed) for seed in range(200)]
        mean, std = np.mean(vals), np.std(vals, ddof=1)
        assert abs(mean - exact) < 3 * std / math.sqrt(len(vals))

    def test_std_scales_inverse_sqrt_shots(self, h2):
        hp = jordan_wigner(h2.hamiltonian)
        s = prepare_determinant(h2.n_qubits, h2.hf_determinant)
        gen = FermionGenerator.from_determinants(0b0011, 0b1100)
        s = apply_fermionic_rotation(s, gen, 0.4)
        lo = np.std([expectation_sampled(hp, s, 1000, rng=seed) for seed in range(200)], ddof=1)
        hi = np.std([expectation_sampled(hp, s, 100000, rng=seed + 10_000) for seed in range(200)], ddof=1)
        assert lo / hi == pytest.approx(10.0, rel=0.2)

    def test_complex_coefficient_rejected(self):
        op = PauliOperator({(0, 0b01): 0.25 + 0.5j})
        with pytest.raises(ValueError):
            expectation_sampled(op, prepare_determinant(2, 0), 10, rng=0)


@st.composite
def sampled_cases(draw):
    """A real-coefficient Pauli operator on <= 6 qubits and a real state:
    random, or a determinant, where Z strings give p_up of exactly 0 or 1."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    keys = draw(st.lists(st.tuples(masks, masks), unique=True, max_size=20))
    terms = {k: complex(draw(st.floats(-2.0, 2.0))) for k in keys}
    if draw(st.booleans()):
        state = prepare_determinant(n, draw(masks), dtype=float)
    else:
        state = _random_real_state(n, draw(st.integers(0, 2**32 - 1)))
    return PauliOperator(terms), state


class TestSampledMatchesLoop:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(sampled_cases(), st.sampled_from([1, 3, 1000]), st.integers(0, 2**32 - 1))
    def test_total_and_stream_equal(self, case, shots, seed):
        op, state = case
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (expectation_sampled(op, state, shots, rng)
                == sampled_loop(op, state, shots, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_probabilities_zero_and_one(self):
        # |01>: Z0 reads -1 (p_up 0), Z1 reads +1 (p_up 1), X0 reads 0 (p_up 1/2)
        op = PauliOperator({(0, 0b01): 0.7, (0, 0b10): -0.3, (0b01, 0): 0.2, (0, 0): 1.5})
        state = prepare_determinant(2, 0b01, dtype=float)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        table = compile_sampled(op, state.size)
        assert sorted(0.5 * (1.0 + table.means(state))) == [0.0, 0.5, 1.0]
        for _ in range(5):
            assert (statevector.expectation_sampled(table, state, 100, rng)
                    == sampled_loop(op, state, 100, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_h4_hamiltonian(self, h4):
        hp = jordan_wigner(h4.hamiltonian)
        circuit = _circuit(h4, PauliGenerator)
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian,
                                     shots_per_term=1000, rng=np.random.default_rng(11))
        oracle_rng = np.random.default_rng(11)
        for steps in range(len(circuit) + 1):
            part = Circuit(circuit.steps[:steps])
            assert (backend.expectation(part)
                    == sampled_loop(hp, backend.states(part, (None,))[0], 1000, oracle_rng))
        assert backend.rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSampledMeans:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_means_equal_per_string_sum(self, n):
        # the batched means are np.add.reduce of each lone string product, bit
        # for bit, and within 1e-15 of its exactly rounded sum
        rng = np.random.default_rng(n)
        keys = {(int(x), int(z)) for x, z in rng.integers(0, 1 << n, size=(40, 2))}
        op = PauliOperator(dict.fromkeys(keys, 0.5))
        table = compile_sampled(op, 1 << n)
        for seed in range(3):
            state = _random_real_state(n, seed)
            products = [string_product(state, key) for key in sorted(keys)
                        if key != PAULI_IDENTITY]
            means = table.means(state)
            assert means.tolist() == [np.add.reduce(p) for p in products]
            assert max(abs(m - math.fsum(p.tolist())) for m, p in zip(means, products)) <= 1e-15

    def test_h4_table_gathers_once_per_x_mask(self, h4):
        # the Jordan-Wigner strings share X masks: 184 strings over 27 gather
        # rows, each mean still the lone string's sum bit for bit, also on
        # states with many zero amplitudes
        op = jordan_wigner(h4.hamiltonian)
        table = compile_sampled(op, 1 << h4.n_qubits)
        assert (table.src.shape[0], table.coeffs.size) == (27, 184)
        keys = [key for key in sorted(op.terms) if key != PAULI_IDENTITY]
        for seed in range(6):
            state = _random_real_state(h4.n_qubits, seed)
            if seed % 2:
                state[np.random.default_rng(seed).random(state.size) < 0.7] = 0.0
            assert table.means(state).tolist() == [
                np.add.reduce(string_product(state, key)) for key in keys]


class TestFidelity:
    def test_self(self):
        s = prepare_determinant(3, 0b101)
        assert fidelity(s, s) == 1.0

    def test_orthogonal(self):
        assert fidelity(prepare_determinant(2, 0), prepare_determinant(2, 3)) == 0.0

    def test_phase_invariant(self):
        s = prepare_determinant(2, 1)
        assert abs(fidelity(s, 1j * s) - 1.0) < 1e-14


def _random_stack(rows, size, seed):
    v = np.random.default_rng(seed).normal(size=(rows, size))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestStackedReplay:
    """A stack of states replays as one array; each row equals the lone
    replay of that state, bit for bit."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_pauli_stack_equals_rows(self, n):
        rng = random.Random(n)
        steps = []
        for i in range(6):
            x = rng.randrange(1, 1 << n)
            y = rng.choice([1 << q for q in range(n) if x >> q & 1])
            steps.append(GivensStep(PauliGenerator(x, y), 0.0 if i == 2 else rng.uniform(-3, 3)))
        circuit = Circuit(tuple(steps))
        stack = _random_stack(3, 1 << n, n)
        out = apply_circuit(stack, circuit)
        assert out.shape == stack.shape
        assert out.tolist() == [apply_circuit(row, circuit).tolist() for row in stack]

    @pytest.mark.parametrize("name", ["h4", "h6"])
    def test_fermionic_stack_equals_rows(self, name):
        problem = _problem(name)
        steps = _circuit(problem, FermionGenerator).steps
        circuit = Circuit(steps + (GivensStep(steps[0].generator, 0.0),))
        sector = Sector(problem.n_qubits, problem.n_electrons)
        stack = _random_stack(2, statevector.sector_dets(sector).size, 7)
        out = apply_circuit(stack, circuit, sector)
        assert out.tolist() == [apply_circuit(row, circuit, sector).tolist() for row in stack]

    @pytest.mark.parametrize("flavor", [FermionGenerator, PauliGenerator])
    def test_drift_in_second_row_alone_raises(self, h4, flavor):
        step = _circuit(h4, flavor).steps[0]
        sector = Sector(h4.n_qubits, h4.n_electrons) if flavor is FermionGenerator else None
        stack = _random_stack(2, statevector.sector_dets(sector or Sector(h4.n_qubits)).size, 3)
        apply_step(stack, step, sector)
        stack[1] *= 1.0 + 1e-8
        apply_step(stack[0], step, sector)
        with pytest.raises(FloatingPointError, match="norm drifted"):
            apply_step(stack, step, sector)

    @pytest.mark.parametrize("flavor", [FermionGenerator, PauliGenerator])
    def test_nan_in_a_lone_state_or_the_second_row_raises(self, h4, flavor):
        # a NaN norm fails the check: abs(nan - 1) > tol would be False
        step = _circuit(h4, flavor).steps[0]
        sector = Sector(h4.n_qubits, h4.n_electrons) if flavor is FermionGenerator else None
        stack = _random_stack(2, statevector.sector_dets(sector or Sector(h4.n_qubits)).size, 3)
        stack[1, 5] = np.nan
        apply_step(stack[0], step, sector)
        for state in (stack[1], stack):
            with pytest.raises(FloatingPointError, match="norm drifted to nan"):
                apply_step(state, step, sector)

    @pytest.mark.parametrize("shots", [None, 100])
    def test_block_values_equal_lone_values(self, h4, shots):
        # the two block states of one stacked replay give the values, shot
        # tallies and random stream of two lone measurements in that order
        circuit = _circuit(h4, FermionGenerator)
        extras = (GivensStep(circuit.steps[0].generator, math.pi / 2), None)

        def backend():
            return StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian, shots,
                                      np.random.default_rng(5), fermionic=True)

        stacked, lone = backend(), backend()
        values = stacked.expectations(circuit, extras)
        assert values == [lone.expectation(circuit, extra) for extra in extras]
        assert stacked.expectation_count == lone.expectation_count == 2
        assert stacked.shots_used == lone.shots_used
        assert stacked.rng.bit_generator.state == lone.rng.bit_generator.state

    def test_stack_beyond_int32_maps_rejected(self):
        backend = object.__new__(StatevectorBackend)
        backend.n_qubits = 30
        with pytest.raises(ValueError, match="int32"):
            backend._replay(Circuit(), (None,) * 3)


class TestBackend:
    def test_counts_expectations(self, h2):
        backend = StatevectorBackend(h2.n_qubits, h2.hf_determinant, h2.hamiltonian)
        backend.expectation(Circuit())
        backend.expectation(Circuit())
        assert backend.expectation_count == 2
        assert backend.shots_used == 0

    def test_register_limit(self):
        # int32 determinant maps index at most 31 qubits
        with pytest.raises(ValueError, match="32 qubits"):
            StatevectorBackend(32, 0b11, FermionOperator())

    @pytest.mark.parametrize("reference", [-1, 1 << 4])
    def test_reference_outside_register(self, reference):
        with pytest.raises(ValueError, match="outside the qubit register"):
            StatevectorBackend(4, reference, FermionOperator())

    def test_sampled_backend_needs_generator(self, h2):
        with pytest.raises(ValueError, match="Generator"):
            StatevectorBackend(h2.n_qubits, h2.hf_determinant, h2.hamiltonian, shots_per_term=10)

    def test_exact_value_measures_the_replay(self, h4):
        # the float64 replay on the sector, not a complex full-register copy
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian,
                                     fermionic=True)
        circuit = _circuit(h4, FermionGenerator)
        replay = backend._replay(circuit, (None,))
        assert replay.dtype == np.float64 and replay.shape == (1, 36)
        assert not backend._start.flags.writeable
        assert backend.expectation(circuit) == statevector.expectation_exact(
            backend.exact_hamiltonian, replay[0])

    def test_shot_accounting(self, h2):
        backend = StatevectorBackend(h2.n_qubits, h2.hf_determinant, h2.hamiltonian,
                                     shots_per_term=10, rng=np.random.default_rng(0))
        backend.expectation(Circuit())
        n_terms = jordan_wigner(h2.hamiltonian).term_count()
        assert backend.shots_used == 10 * n_terms


def _problem(name):
    files = {"h2": "h2_sto6g_0.7414.fcidump", "h4": "h4_linear_1.5.fcidump",
             "h6": "h6_linear_1.5.fcidump"}
    return build_hamiltonian(parse_fcidump((FIXTURES / files[name]).read_text()))


def _alpha_count(det):
    return (det & 0x5555_5555_5555_5555).bit_count()


def _circuit(problem, flavor):
    """Givens steps of generator class ``flavor`` from |HF> to the four lowest
    other determinants of its sector: the (N, S_z) sector that a fermionic
    backend replays on, or the N sector for Pauli steps."""
    hf = problem.hf_determinant
    same_sz = flavor is FermionGenerator
    picks = [d for d in range(1 << problem.n_qubits)
             if d.bit_count() == problem.n_electrons and d != hf
             and not (same_sz and _alpha_count(d) != _alpha_count(hf))][:4]
    return Circuit(tuple(GivensStep(flavor.from_determinants(hf, d), 0.3 + 0.2 * i)
                         for i, d in enumerate(picks)))


class TestCompiledKernel:
    # ((N, S_z) sector, N sector, full register) entries of each fixture's
    # Hamiltonian, the nonzero weights of its table (no coefficient is 0)
    SIZES = {"h2": (16, 22, 60), "h4": (1136, 1892, 6336), "h6": (46848, 96012, 387072)}

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_bit_identical_to_term_loop(self, name):
        problem = _problem(name)
        h = problem.hamiltonian
        sz_sector, n_sector, full = self.SIZES[name]
        inside = StatevectorBackend(problem.n_qubits, problem.hf_determinant, h, fermionic=True)
        circuit = _circuit(problem, FermionGenerator)
        state = inside.states(circuit, (None,))[0]
        assert inside.expectation(circuit) == oracle_expectation(h, state)
        assert expectation_exact(h, state) == oracle_expectation(h, state)
        assert np.count_nonzero(inside.exact_hamiltonian.vals) == sz_sector
        n_dets = statevector.sector_dets(Sector(problem.n_qubits, problem.n_electrons))
        assert np.count_nonzero(compile_operator(h, n_dets).vals) == n_sector

        # Pauli rotations leave the particle-number sector: a backend that
        # is not fermionic compiles over the full register
        outside = StatevectorBackend(problem.n_qubits, problem.hf_determinant, h)
        hf_state = outside.states(Circuit(), (None,))[0]
        assert outside.expectation(Circuit()) == oracle_expectation(h, hf_state)
        circuit = _circuit(problem, PauliGenerator)
        state = outside.states(circuit, (None,))[0]
        counts = np.bitwise_count(np.arange(state.size))
        assert np.any(state[counts != problem.n_electrons])
        assert outside.expectation(circuit) == oracle_expectation(h, state)
        assert expectation_exact(h, state) == oracle_expectation(h, state)
        assert np.count_nonzero(outside.exact_hamiltonian.vals) == full

    def test_cached_maps_read_only(self):
        gen = FermionGenerator(((2, 3), (0, 1)), -1)
        maps = (statevector._rotation_map(gen, Sector(4, 2), 2)
                + statevector._rotation_map(gen, Sector(4), 1)
                + statevector._rotation_map(gen, Sector(4, 2), 1)
                + statevector._pauli_map((0b0110, 0b0011), (2, 16)))
        for arr in maps:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for cache in (statevector._rotation_map, statevector._pauli_map):
            assert cache.cache_info().maxsize == statevector._MAP_CACHE_SIZE

    @pytest.mark.parametrize("sector", [Sector(4, 2), Sector(4)])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_rotation_map_tiles_the_one_row_compile(self, sector, rows):
        # the stacked map as it was built before the one-row compile was
        # cached: the compiled s E, its transpose negated, offset per row
        gen = FermionGenerator(((2, 3), (0, 1)), -1)
        dets = statevector.sector_dets(sector)
        e_rows, e_cols, e_vals = statevector.operator_entries(
            FermionOperator({gen.excitation: gen.sign}), dets)
        shift = np.arange(0, rows * dets.size, dets.size, dtype=np.int32)[:, None]
        expected = ((np.concatenate((e_rows, e_cols)) + shift).ravel(),
                    (np.concatenate((e_cols, e_rows)) + shift).ravel(),
                    np.tile(np.concatenate((e_vals, -e_vals)).astype(np.int8), rows))
        for got, want in zip(statevector._rotation_map(gen, sector, rows), expected, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_rotation_map_compiles_each_generator_once(self, h4, monkeypatch):
        # a block replays its candidate step on one row, and the circuit
        # replays it on two once it is accepted: one compile serves both
        real, asked = statevector._rotation_map, set()
        real_entries, compiles = statevector.operator_entries, []

        def recording(gen, sector, rows):
            asked.add((gen, rows))
            return real(gen, sector, rows)

        def counting(op, dets):
            if op.coeffs.size == 1:  # a generator's s E, not the Hamiltonian
                compiles.append(tuple(op.terms.items()))
            return real_entries(op, dets)

        real.cache_clear()
        monkeypatch.setattr(statevector, "_rotation_map", recording)
        monkeypatch.setattr(statevector, "operator_entries", counting)
        run_quantum_jacobi(h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                                         max_cycles=12))
        generators = {gen for gen, _ in asked}
        assert {rows for _, rows in asked} == {1, 2} and len(asked) > len(generators)
        assert sorted(compiles) == sorted({((g.excitation, g.sign),) for g in generators})
        assert real.cache_info().misses == len(asked)

    def test_trace_independent_of_cache_state(self, h4):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=60, rng_seed=5)
        statevector._rotation_map.cache_clear()
        statevector._pauli_map.cache_clear()
        cold = run_quantum_jacobi(h4, RunConfig(**cfg)).to_jsonl()
        misses = statevector._rotation_map.cache_info().misses
        warm = run_quantum_jacobi(h4, RunConfig(**cfg)).to_jsonl()
        assert statevector._rotation_map.cache_info().misses == misses
        assert warm == cold

    def test_hamiltonian_breaking_sz_keeps_the_n_sector(self, h4):
        # a+_0 a_1 + h.c. moves an electron between alpha 0 and beta 0: the
        # backend replays on the N sector, and measures as the full register
        h = h4.hamiltonian
        broken = FermionOperator({**h.terms, ((0,), (1,)): 0.05, ((1,), (0,)): 0.05},
                                 h.constant)
        args = (h4.n_qubits, h4.hf_determinant, broken)
        full, sector = StatevectorBackend(*args), StatevectorBackend(*args, fermionic=True)
        assert sector._sector == Sector(h4.n_qubits, h4.n_electrons)
        circuit = _circuit(h4, FermionGenerator)
        for extra in (None, circuit.steps[0]):
            assert sector.expectation(circuit, extra) == full.expectation(circuit, extra)
        assert StatevectorBackend(h4.n_qubits, h4.hf_determinant, h,
                                  fermionic=True)._sector == Sector(h4.n_qubits, h4.n_electrons, 2)

    def test_spin_flip_generator_rejected_on_the_sz_sector(self, h4):
        # beta mode 1 to alpha mode 4: on the (N, S_z) sector its compile
        # would drop every entry, so the backend raises instead
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian,
                                     fermionic=True)
        flip = FermionGenerator.from_determinants(h4.hf_determinant, h4.hf_determinant ^ 0b10010)
        with pytest.raises(ValueError, match=r"generator \(\(4,\), \(1,\)\) leaves the S_z"):
            backend.expectation(Circuit(), GivensStep(flip, 0.3))
        with pytest.raises(ValueError, match="leaves the S_z sector"):
            backend.expectation(Circuit((GivensStep(flip, 0.3),)))
        # on the N sector the same generator rotates as before
        n_sector = Sector(h4.n_qubits, h4.n_electrons)
        assert statevector._rotation_map(flip, n_sector, 1)[0].size > 0

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_sector_replay_equals_full_register(self, name):
        problem = _problem(name)
        args = (problem.n_qubits, problem.hf_determinant, problem.hamiltonian)
        full, sector = StatevectorBackend(*args), StatevectorBackend(*args, fermionic=True)
        circuit = _circuit(problem, FermionGenerator)
        extra = circuit.steps[0]
        assert np.array_equal(sector.states(circuit, (extra,))[0],
                              full.states(circuit, (extra,))[0])
        assert sector.expectation(circuit, extra) == full.expectation(circuit, extra)


def _keys(n_modes):
    modes = st.lists(st.integers(0, n_modes - 1), unique=True,
                     min_size=1, max_size=min(3, n_modes))
    return modes.flatmap(lambda cre: st.tuples(
        st.just(tuple(sorted(cre))),
        st.lists(st.integers(0, n_modes - 1), unique=True, min_size=len(cre),
                 max_size=len(cre)).map(lambda ann: tuple(sorted(ann)))))


@st.composite
def hermitian_operators(draw):
    """A random Hermitian FermionOperator on <= 6 modes with rank <= 3 terms."""
    n = draw(st.integers(1, 6))
    terms = {}
    for key in draw(st.lists(_keys(n), min_size=1, max_size=8)):
        coeff = draw(st.floats(-1.0, 1.0))
        for k in (key, conjugate_key(key)):
            terms[k] = terms.get(k, 0.0) + coeff
    return n, FermionOperator(terms, draw(st.floats(-1.0, 1.0)))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def _random_real_state(n, seed):
    v = np.random.default_rng(seed).normal(size=1 << n)
    return v / np.linalg.norm(v)


class TestKernelProperties:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(hermitian_operators(), st.integers(0, 2**32 - 1))
    def test_expectation_matches_dense(self, n_op, seed):
        n, op = n_op
        s = _random_state(n, seed)
        assert abs(expectation_exact(op, s) - np.vdot(s, dense_matrix(op, n) @ s).real) < 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(hermitian_operators(), st.integers(0, 2**32 - 1))
    def test_sector_compile_matches_dense(self, n_op, seed):
        n, op = n_op
        register = np.arange(1 << n, dtype=np.uint64)
        in_sector = np.bitwise_count(register) == n // 2
        v = np.random.default_rng(seed).normal(size=np.count_nonzero(in_sector))
        v /= np.linalg.norm(v)
        s = np.zeros(1 << n)
        s[in_sector] = v
        sparse = compile_operator(op, register[in_sector])
        assert abs(statevector.expectation_exact(sparse, v)
                   - np.vdot(s, dense_matrix(op, n) @ s).real) < 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(hermitian_operators(), st.data())
    def test_compile_on_any_subset_is_the_dense_block(self, n_op, data):
        # rows outside the listed determinants are dropped: the projection
        n, op = n_op
        dets = sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1)))
        sparse = compile_operator(op, np.array(dets, dtype=np.uint64))
        block = np.diag(np.full(len(dets), sparse.constant))
        rows = np.broadcast_to(np.arange(sparse.cols.shape[1]), sparse.cols.shape)
        np.add.at(block, (rows[:, :len(dets)], sparse.cols[:, :len(dets)]),
                  sparse.vals[:, :len(dets)])
        assert np.array_equal(block, dense_matrix(op, n)[np.ix_(dets, dets)].real)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _keys(n))))
    def test_excitation_matches_act_columns(self, n_key):
        n, key = n_key
        dense = dense_matrix(FermionOperator({key: 1.0}), n)
        columns = np.column_stack([apply_excitation(prepare_determinant(n, d), key)
                                   for d in range(1 << n)])
        assert np.array_equal(columns, dense)


@st.composite
def sector_steps(draw):
    """A normalised state on a random sector of <= 8 modes, a particle-
    conserving generator of either sign and an angle."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    r = draw(st.integers(1, min(k, n - k, 3)))
    modes = draw(st.permutations(range(n)))
    gen = FermionGenerator((tuple(sorted(modes[:r])), tuple(sorted(modes[r:2 * r]))),
                           draw(st.sampled_from((1, -1))))
    theta = draw(st.sampled_from((0.0, math.pi / 4, -math.pi / 4, math.pi / 2))
                 | st.floats(-math.pi, math.pi))
    seed = draw(st.integers(0, 2**32 - 1))
    return Sector(n, k), gen, theta, seed


class TestSectorStep:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(sector_steps())
    def test_signed_map_equals_four_gather_oracle(self, case):
        sector, gen, theta, seed = case
        n = sector.n_qubits
        dets = np.flatnonzero(np.bitwise_count(np.arange(1 << n)) == sector.n_particles)
        outside = np.ones(1 << n, dtype=bool)
        outside[dets] = False
        rng = np.random.default_rng(seed)
        v = rng.normal(size=dets.size) + 1j * rng.normal(size=dets.size)
        v /= np.linalg.norm(v)
        full = np.zeros(1 << n, dtype=complex)
        full[dets] = v
        oracle = fermionic_rotation_loop(full, gen, theta)
        assert apply_fermionic_rotation(v, gen, theta, sector).tolist() == oracle[dets].tolist()
        assert not np.any(oracle[outside])
        # the full-register map on a state spread over every sector
        w = _random_state(n, seed)
        assert (apply_fermionic_rotation(w, gen, theta).tolist()
                == fermionic_rotation_loop(w, gen, theta).tolist())


@st.composite
def real_steps(draw):
    """A fermionic step of ``sector_steps`` with its sector or the full
    register (None particles), or a one-Y Pauli string on the full register."""
    sector, gen, theta, seed = draw(sector_steps())
    n = sector.n_qubits
    if draw(st.booleans()):
        x = draw(st.integers(1, (1 << n) - 1))
        y = draw(st.sampled_from([1 << q for q in range(n) if x >> q & 1]))
        return PauliGenerator(x, y), theta, Sector(n), seed
    return gen, theta, draw(st.sampled_from((sector, Sector(n)))), seed


class TestRealReplay:
    """Every rotation of the device is real: the float64 replay equals the
    complex arithmetic it replaced, whose imaginary part stays exactly zero."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(real_steps())
    def test_float64_step_equals_complex_oracle(self, case):
        gen, theta, sector, seed = case
        dets = statevector.sector_dets(sector)
        v = np.random.default_rng(seed).normal(size=dets.size)
        v /= np.linalg.norm(v)
        full = np.zeros(1 << sector.n_qubits, dtype=complex)
        full[dets] = v
        if isinstance(gen, PauliGenerator):
            out, oracle = apply_pauli_rotation(v, gen, theta), pauli_rotation_loop(full, gen, theta)
        else:
            out = apply_fermionic_rotation(v, gen, theta, sector)
            oracle = fermionic_rotation_loop(full, gen, theta)
        assert out.dtype == np.float64
        assert out.tolist() == oracle.real[dets].tolist()
        assert not np.any(oracle.imag)

    @pytest.mark.parametrize("flavor", [FermionGenerator, PauliGenerator])
    def test_replay_stays_float64(self, h4, flavor, monkeypatch):
        # an upcast anywhere in the replay would keep every value and lose the speed
        real, dtypes = statevector.apply_circuit, []

        def recording(state, circuit, sector=None):
            out = real(state, circuit, sector)
            dtypes.extend((state.dtype, out.dtype))
            return out

        monkeypatch.setattr(statevector, "apply_circuit", recording)
        circuit = _circuit(h4, flavor)
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian,
                                     fermionic=flavor is FermionGenerator)
        state = backend.states(circuit, (circuit.steps[0],))[0]
        assert dtypes == [np.float64, np.float64]
        assert state.dtype == np.float64


@st.composite
def kernel_cases(draw):
    """A stack of one or two normalised real rows, some amplitudes +-0.0, and
    a step at an angle: a fermionic step on the full register at n = 4 or 8 or
    on the H4 or H6 sector, or a one-Y Pauli step on the full register."""
    sector = draw(st.sampled_from((Sector(4), Sector(8), Sector(8, 4), Sector(12, 6))))
    n = sector.n_qubits
    if sector.n_particles is None and draw(st.booleans()):
        x = draw(st.integers(1, (1 << n) - 1))
        gen = PauliGenerator(x, draw(st.sampled_from([1 << q for q in range(n) if x >> q & 1])))
    else:
        r = draw(st.integers(1, min(3, n // 2)))
        modes = draw(st.permutations(range(n)))
        gen = FermionGenerator((tuple(sorted(modes[:r])), tuple(sorted(modes[r:2 * r]))),
                               draw(st.sampled_from((1, -1))))
    theta = draw(st.sampled_from((math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4,
                                  1e-9, -1e-9, -0.7)) | st.floats(-math.pi, math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=(draw(st.integers(1, 2)), statevector.sector_dets(sector).size))
    zero = rng.random(v.shape) < draw(st.sampled_from((0.0, 0.5, 0.9)))
    zero[:, 0] = False
    v[zero] = np.copysign(0.0, v[zero])
    return gen, theta, sector, v / np.linalg.norm(v, axis=1)[:, None]


def _bits(state):
    return state.view(np.int64).tolist()


class TestKernelBits:
    """The shaped Pauli step and the gather-only fermionic step give every bit
    of the steps they replaced, signed zeros included."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(kernel_cases())
    def test_step_bits_equal_the_replaced_step(self, case):
        gen, theta, sector, stack = case
        for state in (stack, stack[0]):
            if isinstance(gen, PauliGenerator):
                out = apply_pauli_rotation(state, gen, theta)
                oracle = pauli_step_flat(state, gen, theta)
            else:
                out = apply_fermionic_rotation(state, gen, theta, sector)
                oracle = fermionic_step_two_pass(state, gen, theta, sector)
            assert out.dtype == np.float64 and out.shape == state.shape
            assert _bits(out) == _bits(oracle)

    @pytest.mark.parametrize("sector", [Sector(4), Sector(4, 1)])
    def test_negative_zero_off_the_rotation_turns_positive(self, sector):
        # a+_1 a_0 rotates the determinants whose modes 0 and 1 differ; the
        # two-pass sum adds +0.0 to every other amplitude, so -0.0 there
        # comes out as +0.0
        gen = FermionGenerator(((1,), (0,)), 1)
        dets = statevector.sector_dets(sector)
        state = np.full(dets.size, -0.0)
        state[dets == 1], state[dets == 2] = 0.6, 0.8
        out = apply_fermionic_rotation(state, gen, 0.3, sector)
        assert _bits(out) == _bits(fermionic_step_two_pass(state, gen, 0.3, sector))
        still = (dets & 1) == (dets >> 1 & 1)
        assert still.any() and not np.any(np.signbit(out[still]))


@lru_cache(maxsize=None)
def _compiled(name, space):
    """A fixture Hamiltonian's row table and COO entries over its (N, S_z)
    sector, its N sector or the full register."""
    problem = _problem(name)
    n, k, hf = problem.n_qubits, problem.n_electrons, problem.hf_determinant
    sector = {"sz": Sector(n, k, _alpha_count(hf)), "n": Sector(n, k), "full": Sector(n)}[space]
    dets = statevector.sector_dets(sector)
    h = problem.hamiltonian
    return compile_operator(h, dets), statevector.operator_entries(h, dets), h.constant, dets.size


@st.composite
def table_cases(draw):
    """A compiled fixture Hamiltonian and a real state on its determinants,
    a share of its amplitudes +0.0 or -0.0."""
    table, entries, constant, size = _compiled(draw(st.sampled_from(("h2", "h4", "h6"))),
                                               draw(st.sampled_from(("sz", "n", "full"))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=size)
    zero = rng.random(size) < draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    state[zero] = np.copysign(0.0, rng.normal(size=size))[zero]
    return table, entries, constant, state


class TestRowTable:
    """H|s> summed down the padded row table has every bit of the np.add.at
    scatter it replaced, signed zeros included."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(table_cases())
    def test_bits_equal_add_at(self, case):
        table, entries, constant, state = case
        assert _bits(table.apply(state)) == _bits(apply_add_at(entries, constant, state))

    @pytest.mark.parametrize("space", ["sz", "n", "full"])
    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_rows_of_negative_zero_products(self, name, space):
        # every amplitude -0.0: each row's first product is -0.0, and on the
        # full register the vacuum's row holds nothing but -0.0 products
        # (its pads), so a sum begun at that product, not at +0.0, ends -0.0
        table, entries, constant, size = _compiled(name, space)
        state = np.full(size, -0.0)
        first = table.vals[0] * state[table.cols[0]]
        assert np.all(np.signbit(first[table.vals[0] > 0]))
        assert _bits(table.apply(state)) == _bits(apply_add_at(entries, constant, state))

    def test_one_determinant_is_not_summed_pairwise(self):
        # a lone row of more than 8 products, which numpy would sum pairwise
        # down a one-column table
        dets = np.array([0b1111], dtype=np.uint64)
        op = FermionOperator({((q,), (q,)): 0.1 * (q + 1) for q in range(4)} | {
            ((p, q), (p, q)): 0.3 / (p + q) for p in range(4) for q in range(p + 1, 4)}, 0.7)
        table = compile_operator(op, dets)
        assert table.vals.shape == (10, 2)
        state = np.array([1.0 / 3.0])
        assert _bits(table.apply(state)) == _bits(apply_add_at(
            statevector.operator_entries(op, dets), op.constant, state))
