import pathlib

import pytest

from qjacobi.fcidump import parse_fcidump
from qjacobi.fci import fci_ground_state
from qjacobi.hamiltonian import build_hamiltonian
from qjacobi.jacobi import RunConfig, run_quantum_jacobi

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def h2_data():
    return parse_fcidump((FIXTURES / "h2_sto6g_0.7414.fcidump").read_text())


@pytest.fixture(scope="session")
def h2(h2_data):
    return build_hamiltonian(h2_data)


@pytest.fixture(scope="session")
def h4_data():
    return parse_fcidump((FIXTURES / "h4_linear_1.5.fcidump").read_text())


@pytest.fixture(scope="session")
def h4(h4_data):
    return build_hamiltonian(h4_data)


@pytest.fixture(scope="session")
def h6_data():
    return parse_fcidump((FIXTURES / "h6_linear_1.5.fcidump").read_text())


@pytest.fixture(scope="session")
def h6(h6_data):
    return build_hamiltonian(h6_data)


@pytest.fixture(scope="session")
def h2_fci(h2):
    return fci_ground_state(h2, sz=0.0)


@pytest.fixture(scope="session")
def h4_fci(h4):
    return fci_ground_state(h4, sz=0.0)


# Heavy runs shared across test modules and the acceptance suite.

@pytest.fixture(scope="session")
def h2_exact_trace(h2):
    return run_quantum_jacobi(h2, RunConfig(method="exact-bch-fermionic", max_cycles=10, rng_seed=0))


@pytest.fixture(scope="session")
def h4_exact_trace(h4):
    return run_quantum_jacobi(h4, RunConfig(method="exact-bch-fermionic", max_cycles=200, rng_seed=0))


@pytest.fixture(scope="session")
def h4_fqj_trace(h4):
    return run_quantum_jacobi(h4, RunConfig(method="fqj", epsilon=1e-4, max_cycles=200, rng_seed=11))


@pytest.fixture(scope="session")
def h4_cfqj_trace(h4):
    return run_quantum_jacobi(
        h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=200, rng_seed=11))


@pytest.fixture(scope="session")
def h4_merge_family(h4):
    """cfqj runs at merge thresholds None, 1e-3, 5e-3, 1e-2 (shared seed)."""
    runs = {}
    for threshold in (None, 1e-3, 5e-3, 1e-2):
        cfg = RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=150,
                        rng_seed=7, merge_threshold=threshold)
        runs[threshold] = run_quantum_jacobi(h4, cfg)
    return runs
