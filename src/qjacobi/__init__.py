"""Classically driven quantum Jacobi diagonalization of molecular Hamiltonians.

The electronic Hamiltonian is pushed toward block-diagonal form by sequential
Givens rotations: generators come from a classically approximated residual,
angles from 2x2 effective blocks measured (two expectation values per cycle)
on a simulated statevector device.
"""

from .fcidump import parse_fcidump
from .hamiltonian import build_hamiltonian
from .fci import fci_ground_state
from .jacobi import RunConfig, run_quantum_jacobi

__version__ = "0.1.0"
