"""Jordan-Wigner mapping between fermionic and qubit operators.

Convention: qubit q holds the occupation of spin orbital q, and

    a+_p = (X_p - i Y_p)/2 . Z_{p-1} .. Z_0
    a_p  = (X_p + i Y_p)/2 . Z_{p-1} .. Z_0

which reproduces the parity signs of ``FermionOperator.act``.
"""

from __future__ import annotations

from functools import lru_cache

from .fermion import FermionGenerator, FermionOperator, Key, key_events
from .pauli import PAULI_IDENTITY, PauliOperator, pauli_multiply


@lru_cache(maxsize=4096)
def _jw_event(event: int) -> tuple[tuple[tuple[int, int], complex], ...]:
    p = event >> 1
    x = 1 << p
    zlow = x - 1
    if event & 1:  # creation
        return (((x, zlow), 0.5), ((x, zlow | x), -0.5j))
    return (((x, zlow), 0.5), ((x, zlow | x), 0.5j))


@lru_cache(maxsize=1 << 16)
def _jw_key(key: Key) -> tuple[tuple[tuple[int, int], complex], ...]:
    acc = {PAULI_IDENTITY: 1.0 + 0.0j}
    for event in key_events(key):
        nxt: dict = {}
        for k1, c1 in acc.items():
            for k2, c2 in _jw_event(event):
                k, phase = pauli_multiply(k1, k2)
                v = nxt.get(k, 0.0) + c1 * c2 * phase
                nxt[k] = v
        acc = {k: c for k, c in nxt.items() if c != 0}
    return tuple(acc.items())


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Map a fermionic operator to its Pauli form; linear, Hermiticity-preserving."""
    out: dict[tuple[int, int], complex] = {}
    if op.constant:
        out[PAULI_IDENTITY] = complex(op.constant)
    for key, coeff in op.terms.items():
        for pk, pc in _jw_key(key):
            out[pk] = out.get(pk, 0.0) + coeff * pc
    return PauliOperator(out).pruned()


def jw_generator(gen: FermionGenerator) -> PauliOperator:
    """Pauli image of the Hermitian generator -i s(E - E+) in one pass: JW(E+)
    = JW(E)+ puts the conjugate coefficient on each of E's strings P, so
    -i s(E - E+) = 2 s sum_P Im(c_P) P.  The strings commute, so e^{i theta mu}
    factors exactly into one rotation per string; the CNOT estimator counts
    them that way."""
    return PauliOperator({pk: 2.0 * gen.sign * pc.imag
                          for pk, pc in _jw_key(gen.excitation)}).pruned()
