import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qjacobi import statevector
from qjacobi.fcidump import parse_fcidump
from qjacobi.fci import dense_matrix
from qjacobi.fermion import FermionGenerator, FermionOperator, conjugate_key
from qjacobi.hamiltonian import build_hamiltonian
from qjacobi.jacobi import RunConfig, run_quantum_jacobi
from qjacobi.jordan_wigner import jordan_wigner
from qjacobi.pauli import PAULI_IDENTITY, PauliGenerator, PauliOperator
from qjacobi.statevector import (Circuit, GivensStep, Sector, StatevectorBackend,
                                 apply_circuit, apply_fermionic_rotation, apply_pauli_rotation,
                                 compile_operator, compile_sampled, expectation_exact,
                                 expectation_sampled, prepare_determinant)
from support import (apply_excitation, embed_in_full_space, fermionic_rotation_loop, fidelity,
                     generator_operator, hf_energy, pauli_rotation_loop)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def apply_pauli_string(state, key):
    """P . state with the phase outside the map: the single-string kernel the
    sampled estimator and the Pauli replay are checked against."""
    src, factor = statevector._pauli_map(key, state.shape[0])
    return statevector._pauli_phase(key) * factor * state[src]


def term_loop(op, state):
    """H . state one term after another: the oracle for the compiled kernel."""
    acc = np.zeros_like(state)
    for key, coeff in op.terms.items():
        acc += coeff * apply_excitation(state, key)
    if op.constant:
        acc += op.constant * state
    return acc


def oracle_expectation(op, state):
    return complex(np.vdot(state, term_loop(op, state))).real


def sampled_loop(op, state, shots_per_term, rng):
    """The per-string sampling loop: the oracle for the compiled estimator."""
    total = 0.0
    for key, coeff in sorted(op.terms.items()):
        if abs(coeff.imag) > 1e-10:
            raise ValueError("sampled operator must have real coefficients")
        if key == PAULI_IDENTITY:
            total += coeff.real
            continue
        mean = complex(np.vdot(state, apply_pauli_string(state, key)))
        if abs(mean.imag) > 1e-10:
            raise FloatingPointError("Pauli expectation has imaginary residue")
        p_up = min(1.0, max(0.0, 0.5 * (1.0 + mean.real)))
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

    def test_sampling_order_draws_alike(self, h2):
        hp = jordan_wigner(h2.hamiltonian)
        s = apply_fermionic_rotation(prepare_determinant(h2.n_qubits, h2.hf_determinant),
                                     FermionGenerator.from_determinants(0b0011, 0b1100), 0.4)
        assert (expectation_sampled(hp, s, 500, rng=5)
                == expectation_sampled(compile_sampled(hp, s.size), s, 500, rng=5))

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
    """A real-coefficient Pauli operator on <= 6 qubits and a state: random,
    or a determinant, where Z strings give p_up of exactly 0 or 1."""
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    keys = draw(st.lists(st.tuples(masks, masks), unique=True, max_size=20))
    terms = {k: complex(draw(st.floats(-2.0, 2.0))) for k in keys}
    if draw(st.booleans()):
        state = prepare_determinant(n, draw(masks))
    else:
        state = _random_state(n, draw(st.integers(0, 2**32 - 1)))
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
        state = prepare_determinant(2, 0b01)
        rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
        table = compile_sampled(op, state.size)
        assert sorted(0.5 * (1.0 + table.means(state))) == [0.0, 0.5, 1.0]
        for _ in range(5):
            assert (expectation_sampled(table, state, 100, rng)
                    == sampled_loop(op, state, 100, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_h4_hamiltonian(self, h4):
        hp = jordan_wigner(h4.hamiltonian)
        circuit = _circuit(h4, PauliGenerator)
        backend = StatevectorBackend(h4.n_qubits, h4.hf_determinant, h4.hamiltonian,
                                     shots_per_term=1000, rng=11)
        oracle_rng = np.random.default_rng(11)
        for steps in range(len(circuit) + 1):
            part = Circuit(circuit.steps[:steps])
            assert (backend.expectation(part)
                    == sampled_loop(hp, backend.state(part), 1000, oracle_rng))
        assert backend.rng.bit_generator.state == oracle_rng.bit_generator.state


class TestSampledMeans:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_means_equal_per_string_vdot(self, n):
        # <s|P|s> per string must be one np.vdot of s with P.s, bit for bit; a
        # batched form (block @ s.conj()) rounds differently at these sizes
        rng = np.random.default_rng(n)
        keys = {(int(x), int(z)) for x, z in rng.integers(0, 1 << n, size=(40, 2))}
        op = PauliOperator(dict.fromkeys(keys, 0.5))
        table = compile_sampled(op, 1 << n)
        for seed in range(3):
            state = _random_state(n, seed)
            expected = [complex(np.vdot(state, apply_pauli_string(state, key))).real
                        for key in sorted(keys) if key != PAULI_IDENTITY]
            assert table.means(state).tolist() == expected


class TestFidelity:
    def test_self(self):
        s = prepare_determinant(3, 0b101)
        assert fidelity(s, s) == 1.0

    def test_orthogonal(self):
        assert fidelity(prepare_determinant(2, 0), prepare_determinant(2, 3)) == 0.0

    def test_phase_invariant(self):
        s = prepare_determinant(2, 1)
        assert abs(fidelity(s, 1j * s) - 1.0) < 1e-14


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

    def test_shot_accounting(self, h2):
        backend = StatevectorBackend(h2.n_qubits, h2.hf_determinant, h2.hamiltonian,
                                     shots_per_term=10, rng=0)
        backend.expectation(Circuit())
        n_terms = backend.pauli_hamiltonian().term_count()
        assert backend.shots_used == 10 * n_terms


def _problem(name):
    files = {"h2": "h2_sto6g_0.7414.fcidump", "h4": "h4_linear_1.5.fcidump",
             "h6": "h6_linear_1.5.fcidump"}
    return build_hamiltonian(parse_fcidump((FIXTURES / files[name]).read_text()))


def _circuit(problem, flavor):
    """Givens steps of generator class ``flavor`` from |HF> to the four lowest
    other determinants of its sector."""
    hf = problem.hf_determinant
    picks = [d for d in range(1 << problem.n_qubits)
             if d.bit_count() == problem.n_electrons and d != hf][:4]
    return Circuit(tuple(GivensStep(flavor.from_determinants(hf, d), 0.3 + 0.2 * i)
                         for i, d in enumerate(picks)))


class TestCompiledKernel:
    # (sector, full register) COO entries of each fixture's Hamiltonian
    SIZES = {"h2": (22, 60), "h4": (1892, 6336), "h6": (96012, 387072)}

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_bit_identical_to_term_loop(self, name):
        problem = _problem(name)
        h = problem.hamiltonian
        sector, full = self.SIZES[name]
        inside = StatevectorBackend(problem.n_qubits, problem.hf_determinant, h, fermionic=True)
        circuit = _circuit(problem, FermionGenerator)
        state = inside.state(circuit)
        assert inside.expectation(circuit) == oracle_expectation(h, state)
        assert expectation_exact(h, state) == oracle_expectation(h, state)
        assert inside.exact_hamiltonian().rows.size == sector

        # Pauli rotations leave the particle-number sector: a backend that
        # is not fermionic compiles over the full register
        outside = StatevectorBackend(problem.n_qubits, problem.hf_determinant, h)
        hf_state = outside.state(Circuit())
        assert outside.expectation(Circuit()) == oracle_expectation(h, hf_state)
        circuit = _circuit(problem, PauliGenerator)
        state = outside.state(circuit)
        counts = np.bitwise_count(np.arange(state.size))
        assert np.any(state[counts != problem.n_electrons])
        assert outside.expectation(circuit) == oracle_expectation(h, state)
        assert expectation_exact(h, state) == oracle_expectation(h, state)
        assert outside.exact_hamiltonian().rows.size == full

    def test_cached_maps_read_only(self):
        gen = FermionGenerator(((2, 3), (0, 1)), -1)
        maps = (statevector._rotation_map(gen, Sector(4, 2))
                + statevector._rotation_map(gen, Sector(4))
                + statevector._pauli_map((0b0110, 0b0011), 16))
        for arr in maps:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for cache in (statevector._rotation_map, statevector._pauli_map):
            assert cache.cache_info().maxsize == statevector._MAP_CACHE_SIZE

    def test_trace_independent_of_cache_state(self, h4):
        cfg = dict(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=60, rng_seed=5)
        statevector._rotation_map.cache_clear()
        statevector._pauli_map.cache_clear()
        cold = run_quantum_jacobi(h4, RunConfig(**cfg)).to_jsonl()
        misses = statevector._rotation_map.cache_info().misses
        warm = run_quantum_jacobi(h4, RunConfig(**cfg)).to_jsonl()
        assert statevector._rotation_map.cache_info().misses == misses
        assert warm == cold

    @pytest.mark.parametrize("name", ["h2", "h4", "h6"])
    def test_sector_replay_equals_full_register(self, name):
        problem = _problem(name)
        args = (problem.n_qubits, problem.hf_determinant, problem.hamiltonian)
        full, sector = StatevectorBackend(*args), StatevectorBackend(*args, fermionic=True)
        circuit = _circuit(problem, FermionGenerator)
        extra = circuit.steps[0]
        assert np.array_equal(sector.state(circuit, extra), full.state(circuit, extra))
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
        s = np.where(in_sector, _random_state(n, seed), 0.0)
        s /= np.linalg.norm(s)
        sparse = compile_operator(op, register[in_sector])
        assert abs(expectation_exact(sparse, s)
                   - np.vdot(s, dense_matrix(op, n) @ s).real) < 1e-12

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
        dets = statevector._sector_dets(sector)
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
        state = backend.state(circuit, circuit.steps[0])
        assert dtypes == [np.float64, np.float64]
        assert state.dtype == complex and not np.any(state.imag)
