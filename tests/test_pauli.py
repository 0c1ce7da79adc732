import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qjacobi import pauli
from qjacobi.jacobi import truncate
from qjacobi.pauli import (PAULI_IDENTITY, ZERO_FLOOR, PauliGenerator, PauliOperator,
                           _lexsort, bch_transform_pauli, pauli_label, pauli_multiply,
                           pauli_weight)
from support import bits, dense_matrix

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


# The term-by-term dict loops the array kernels replaced, kept as oracles.

def paulis_commute(p, q):
    """[p, q] = 0 iff the symplectic form of the masks is even."""
    return ((p[0] & q[1]).bit_count() + (p[1] & q[0]).bit_count()) & 1 == 0


def pauli_action_on_det(key, det):
    """P|det> = phase |det XOR x>."""
    x, z = key
    phase = _PHASES[((x & z).bit_count() + 2 * (z & det).bit_count()) & 3]
    return phase, det ^ x


def bch_loop(terms, gen, theta, floor=ZERO_FLOOR):
    if theta == 0.0:
        return dict(terms)
    g = gen.key
    cos2 = math.cos(2.0 * theta)
    isin2 = 1j * math.sin(2.0 * theta)
    out = {}
    for key, h in terms.items():
        if paulis_commute(key, g):
            out[key] = out.get(key, 0.0) + h
            continue
        prod, phase = pauli_multiply(key, g)
        out[key] = out.get(key, 0.0) + h * cos2
        out[prod] = out.get(prod, 0.0) + h * isin2 * phase
    return {k: c for k, c in out.items() if abs(c) > floor}


def act_loop(terms, det):
    out = {}
    for key, coeff in terms.items():
        phase, d2 = pauli_action_on_det(key, det)
        out[d2] = out.get(d2, 0.0) + coeff * phase
    return out


def truncate_loop(terms, epsilon):
    return {k: c for k, c in terms.items() if k == PAULI_IDENTITY or abs(c) >= epsilon}


X, Y, Z, I = (1, 0), (1, 1), (0, 1), (0, 0)


class TestMultiply:
    def test_xy_gives_iz(self):
        assert pauli_multiply(X, Y) == (Z, 1j)

    def test_zz_gives_identity(self):
        assert pauli_multiply(Z, Z) == (I, 1.0)

    def test_xx_times_zz(self):
        # (X0 X1)(Z0 Z1) = -Y0 Y1 from the two per-qubit (-i) phases
        key, phase = pauli_multiply((0b11, 0), (0, 0b11))
        assert key == (0b11, 0b11) and phase == -1.0

    def test_associativity_random(self):
        rng = random.Random(9)
        for _ in range(300):
            ps = [(rng.getrandbits(4), rng.getrandbits(4)) for _ in range(3)]
            k1, f1 = pauli_multiply(ps[0], ps[1])
            k1, f2 = pauli_multiply(k1, ps[2])
            left = (k1, f1 * f2)
            k2, g1 = pauli_multiply(ps[1], ps[2])
            k2, g2 = pauli_multiply(ps[0], k2)
            assert left == (k2, g1 * g2)

    def test_commute_iff_symplectic_even(self):
        rng = random.Random(13)
        for _ in range(200):
            p = (rng.getrandbits(5), rng.getrandbits(5))
            q = (rng.getrandbits(5), rng.getrandbits(5))
            k1, f1 = pauli_multiply(p, q)
            k2, f2 = pauli_multiply(q, p)
            assert k1 == k2
            assert paulis_commute(p, q) == (f1 == f2)

    def test_weight(self):
        assert pauli_weight((0b101, 0b001)) == 2
        assert pauli_weight(I) == 0

    def test_label(self):
        assert pauli_label((0b011, 0b010), 4) == "XYII"


class TestActionOnDeterminant:
    def test_x_flips(self):
        assert pauli_action_on_det((0b10, 0), 0b00) == (1.0, 0b10)

    def test_z_phase(self):
        assert pauli_action_on_det((0, 0b1), 0b1) == (-1.0, 0b1)

    def test_y_phases(self):
        assert pauli_action_on_det((1, 1), 0b0) == (1j, 0b1)
        assert pauli_action_on_det((1, 1), 0b1) == (-1j, 0b0)

    def test_matches_dense(self):
        rng = random.Random(17)
        for _ in range(50):
            key = (rng.getrandbits(3), rng.getrandbits(3))
            m = dense_matrix(PauliOperator({key: 1.0}), 3)
            for d in range(8):
                phase, d2 = pauli_action_on_det(key, d)
                assert m[d2, d] == pytest.approx(phase)


class TestGenerator:
    def test_single_y_required(self):
        PauliGenerator(0b110, 0b010)
        with pytest.raises(ValueError):
            PauliGenerator(0b110, 0b011)
        with pytest.raises(ValueError):
            PauliGenerator(0b110, 0b001)  # Y outside the X support

    def test_from_determinants(self):
        # phi0 = 0011, phi_mu = 0101: X on qubits 1,2 with Y on qubit 1
        gen = PauliGenerator.from_determinants(0b0011, 0b0101)
        assert gen.x_mask == 0b0110 and gen.z_mask == 0b0010

    def test_popcount_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliGenerator.from_determinants(0b0011, 0b0111)


class TestBchPauli:
    def test_theta_zero(self):
        gen = PauliGenerator(0b11, 0b01)
        assert bch_transform_pauli(PauliOperator({(0b10, 0b00): 0.4}), gen, 0.0).terms == {(0b10, 0b00): 0.4}

    def test_commuting_unchanged(self):
        # Z0 commutes with Z0 Z1; transform leaves it alone for any theta
        op = PauliOperator({(0, 0b01): 1.5})
        gen = PauliGenerator(0b11, 0b01)
        assert paulis_commute((0, 0b11), (0, 0b01))
        out = bch_transform_pauli(PauliOperator({(0, 0b11): 2.0}), gen, 0.8)
        assert out.terms == {(0, 0b11): 2.0}
        del op

    def test_z_under_y_quarter_turn(self):
        # P = Z, gen = Y, theta = pi/4 -> X with the input coefficient
        gen = PauliGenerator(1, 1)
        out = bch_transform_pauli(PauliOperator({Z: 0.75}), gen, math.pi / 4).terms
        assert abs(out.get(X, 0.0) - 0.75) < 1e-12
        assert abs(out.get(Z, 0.0)) < 1e-12

    def test_against_dense_conjugation(self):
        rng = random.Random(21)
        worst = 0.0
        for _ in range(80):
            n = 3
            key = (rng.getrandbits(n), rng.getrandbits(n))
            xm = rng.randint(1, 2 ** n - 1)
            gen = PauliGenerator(xm, xm & -xm)
            theta = rng.uniform(-3.0, 3.0)
            out = bch_transform_pauli(PauliOperator({key: 1.0}), gen, theta)
            p = dense_matrix(PauliOperator({key: 1.0}), n)
            g = dense_matrix(PauliOperator({gen.key: 1.0}), n)
            ref = expm(-1j * theta * g) @ p @ expm(1j * theta * g)
            worst = max(worst, float(np.max(np.abs(dense_matrix(out, n) - ref))))
        assert worst < 1e-10

    def test_hermiticity_real_coefficients(self, h2):
        from qjacobi.jordan_wigner import jordan_wigner
        hp = jordan_wigner(h2.hamiltonian)
        gen = PauliGenerator.from_determinants(0b0011, 0b1100)
        out = bch_transform_pauli(hp, gen, 0.6)
        assert max(abs(c.imag) for c in out.terms.values()) < 1e-12

    def test_isospectral(self, h2):
        from qjacobi.jordan_wigner import jordan_wigner
        hp = jordan_wigner(h2.hamiltonian)
        gen = PauliGenerator.from_determinants(0b0011, 0b1100)
        before = np.linalg.eigvalsh(dense_matrix(hp, 4))
        after = np.linalg.eigvalsh(dense_matrix(bch_transform_pauli(hp, gen, 0.7), 4))
        assert np.max(np.abs(before - after)) < 1e-10


# Coefficients that cancel exactly and sit on truncation thresholds.
_DYADIC = st.sampled_from([0.5, -0.5, 0.25, -0.25, 1.0, 0.5j, -0.5j, 0.25 + 0.25j, 1e-15])
_COEFFS = _DYADIC | st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                        allow_infinity=False)
_THETAS = st.sampled_from([0.0, math.pi / 4, math.pi / 2, -math.pi / 8]) | st.floats(-3.2, 3.2)


@st.composite
def operators(draw, n_qubits=None):
    """(n, terms, generator): distinct strings on n qubits (1 to 8 unless
    given), some with their partner under the generator present too, the
    identity sometimes."""
    n = n_qubits or draw(st.integers(1, 8))
    xm = draw(st.integers(1, (1 << n) - 1))
    gen = PauliGenerator(xm, xm & -xm)
    masks = st.integers(0, (1 << n) - 1)
    if n > 32:  # strings that agree below bit 32 catch keys cut or packed there
        masks |= st.builds(lambda lo, hi: lo | hi << 32, st.integers(0, 3), st.integers(0, 3))
    keys = draw(st.lists(st.tuples(masks, masks), unique=True, max_size=24))
    if keys:
        keys += [(x ^ gen.x_mask, z ^ gen.z_mask)
                 for x, z in draw(st.lists(st.sampled_from(keys), max_size=8))]
    if draw(st.booleans()):
        keys.append(PAULI_IDENTITY)
    terms = {}
    for key in keys:
        terms.setdefault(key, draw(_COEFFS))
    return n, terms, gen


def assert_same_terms(op, expected):
    assert bits(op.terms.items()) == bits(expected.items())


class TestArrayKernelsMatchLoops:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(operators(), _THETAS)
    def test_bch_transform(self, case, theta):
        n, terms, gen = case
        assert_same_terms(bch_transform_pauli(PauliOperator(terms), gen, theta),
                          bch_loop(terms, gen, theta))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(operators(), st.integers(0, 255))
    def test_act(self, case, det):
        n, terms, gen = case
        det &= (1 << n) - 1
        assert bits(PauliOperator(terms).act(det).items()) == bits(act_loop(terms, det).items())

    # strings past bit 31, which a conjugation keyed on a packed x << 32 | z
    # would merge wrongly
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(operators(n_qubits=64), _THETAS)
    def test_bch_transform_on_64_qubits(self, case, theta):
        n, terms, gen = case
        assert_same_terms(bch_transform_pauli(PauliOperator(terms), gen, theta),
                          bch_loop(terms, gen, theta))

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(operators(n_qubits=40), st.integers(0, (1 << 40) - 1))
    def test_act_on_40_qubits(self, case, det):
        n, terms, gen = case
        assert bits(PauliOperator(terms).act(det).items()) == bits(act_loop(terms, det).items())

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(operators(), st.sampled_from([0.0, 0.25, 0.5, 1e-15, 1e-3]) | st.floats(0.0, 2.0))
    def test_truncate(self, case, epsilon):
        n, terms, gen = case
        assert_same_terms(truncate(PauliOperator(terms), epsilon, 2),
                          truncate_loop(terms, epsilon))

    def test_partner_pair_cancels_exactly(self):
        # Z0 and X0 rotate into each other under Y0: with coefficients
        # (sin 2t, cos 2t) the Z0 output is s c - c s = 0, pruned as in the loop
        gen, theta = PauliGenerator(1, 1), 0.3
        s, c = math.sin(2 * theta), math.cos(2 * theta)
        cancelled = 0
        for b in (c, -c, 1j * c, -1j * c):
            terms = {Z: s, X: b}
            out = bch_transform_pauli(PauliOperator(terms), gen, theta)
            assert_same_terms(out, bch_loop(terms, gen, theta))
            cancelled += Z not in out.terms
        assert cancelled == 1

    def test_partner_pairing_order(self):
        # under g = Y0 X1: B = X0X1 comes before its partner A = Z0, and the
        # commuting C = X2 sits between them; D = Z1's partner Y0Y1 is absent;
        # F = Z0X1 comes before its partner E = X0, whose x has the Y bit set
        gen = PauliGenerator(0b11, 0b01)
        a, b, c, d, e, f = (0, 1), (3, 0), (4, 0), (0, 2), (1, 0), (2, 1)
        terms = {b: 0.5, c: complex(0.25, -0.0), a: -0.75j, d: 1.0, f: 0.5 + 0.5j, e: -0.25}
        out = bch_transform_pauli(PauliOperator(terms), gen, 0.3)
        assert list(out.terms) == [b, a, c, d, (3, 3), f, e]
        assert_same_terms(out, bch_loop(terms, gen, 0.3))
        # the 0.0 seed turns the commuting string's -0.0 imaginary part into +0.0
        assert math.copysign(1.0, out.terms[c].imag) == 1.0

    def test_act_cancels_exactly(self):
        # (I + Z0)/2 annihilates |1>: the two contributions cancel to 0
        op = PauliOperator({I: 0.5, Z: 0.5})
        assert bits(op.act(1).items()) == bits(act_loop(op.terms, 1).items()) == bits([(1, 0.0)])

    def test_terms_view(self):
        op = PauliOperator({X: 0.5, I: 1.0, Z: -0.25j})
        assert len(op.terms) == 3 and op.term_count() == 2
        assert list(op.terms) == [X, I, Z] and op.terms[Z] == -0.25j
        assert Y not in op.terms and op.terms.get(Y) is None
        assert op.terms == {I: 1.0, X: 0.5, Z: -0.25j}
        for arr in (op.x, op.z, op.coeffs):
            assert not arr.flags.writeable


_WIDTHS = (0, 1, 8, 31, 32, 40, 63, 64)


@st.composite
def sort_keys(draw):
    """1-3 uint64 keys of 0-400 entries, each drawn from a small pool (so
    ties are common) whose widest value uses one of ``_WIDTHS`` bits."""
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.sampled_from(_WIDTHS))
        top = draw(st.integers((1 << w) >> 1, (1 << w) - 1))
        pool = np.array([top] + draw(st.lists(st.integers(0, (1 << w) - 1), max_size=3)),
                        np.uint64)
        key = pool[rng.integers(0, pool.size, n)]
        if n:
            key[rng.integers(n)] = top  # the key uses all w bits
        keys.append(key)
    return tuple(keys)


def key_of_width(n, w, seed):
    """n uint64 values, with ties, whose widest uses exactly w bits."""
    pool = np.array([(1 << w) - 1, 0, (1 << w) >> 1, ((1 << w) - 1) // 3], np.uint64)
    key = pool[np.random.default_rng(seed).integers(0, pool.size, n)]
    key[:1] = pool[0]
    return key


class TestLexsort:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(sort_keys())
    def test_matches_lexsort(self, keys):
        order = _lexsort(keys)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.lexsort(keys[::-1]))

    # (n, key widths, whether the used bits plus n.bit_length() exceed 64)
    @pytest.mark.parametrize("n, widths, fallback", [
        (0, (0, 0), False), (1, (63,), False), (1, (64,), True),
        (4, (61,), False), (4, (62,), True), (5, (20, 20, 21), False),
        (5, (20, 21, 21), True), (256, (30, 25), False), (256, (30, 26), True),
        (300, (0, 55), False), (300, (1, 55), True)])
    def test_packed_at_64_bits_and_lexsort_past_them(self, n, widths, fallback, monkeypatch):
        keys = tuple(key_of_width(n, w, seed) for seed, w in enumerate(widths))
        expected = np.lexsort(keys[::-1])
        calls = []
        monkeypatch.setattr(np, "lexsort", lambda k: calls.append(k) or expected)
        order = _lexsort(keys)
        monkeypatch.undo()
        assert order.dtype == np.intp and np.array_equal(order, expected)
        assert len(calls) == fallback

    def test_lexsort_called_only_in_the_helper(self):
        # one sort path: a second np.lexsort site would bypass the packed sort
        sites = []
        for path in sorted(Path(pauli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # node -> innermost enclosing function (ast.walk is breadth-first)
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner.update((node, func.name) for node in ast.walk(func))
            sites += [(path.name, owner.get(node)) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "lexsort"
                      or isinstance(node, ast.alias) and node.name == "lexsort"]
        assert sites == [("pauli.py", "_lexsort")]
