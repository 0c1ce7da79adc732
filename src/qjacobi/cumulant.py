"""Restricted cumulant decomposition of high-rank fermionic terms.

Against a single-determinant reference the contraction <a+_r a_r> is a
Kronecker delta, so decomposing only the spectator part of a term is a sum
over which occupied spectator pair gets contracted, each removal carrying a
1/l weight.  The recursion stops once the whole term (pure part included) is
two-body, or earlier when no spectators remain.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fermion import FermionOperator
from .pauli import _merge_first_seen


@lru_cache(maxsize=64)
def _leaf_template(spectators: int, leaf_size: int) -> np.ndarray:
    """Leaves of the removal recursion, in its depth-first order.

    Row i marks (with 1) the spectator positions, in ascending index order,
    that the i-th leaf keeps: removing one spectator at a time, position j
    before j + 1, until ``leaf_size`` remain.  Every ordering of the removals
    is a leaf, so a kept set recurs (spectators - leaf_size)! times.
    """
    leaves = [tuple(range(spectators))]
    for _ in range(spectators - leaf_size):
        leaves = [kept[:j] + kept[j + 1:] for kept in leaves for j in range(len(kept))]
    template = np.zeros((len(leaves), spectators), dtype=np.uint64)
    for i, kept in enumerate(leaves):
        template[i, list(kept)] = 1
    template.setflags(write=False)
    return template


def cumulant_decompose(op: FermionOperator, kappa: float, reference: int) -> FermionOperator:
    """Decompose rank > 2 terms with |h| < kappa; keep everything else.

    Terms whose spectator block touches an orbital unoccupied in the
    reference are dropped outright (their contraction vanishes on the HF
    state).  The HF expectation value of every surviving term is preserved
    exactly by the 1/l weights.

    A decomposed term moves to the factored (pure block, spectator block)
    form, whose sign has the parity of the (pure index, spectator) pairs with
    the pure index above; each leaf divides by l, l-1, ... in the
    recursion's order and folds its own sign back.  Outputs sum their
    contributions in the order of a term-by-term, depth-first dict loop.
    """
    cre, ann, h = op.cre, op.ann, op.coeffs
    spect = cre & ann
    n_spect = np.bitwise_count(spect).astype(np.int64)
    n_pure = np.bitwise_count(cre).astype(np.int64) - n_spect
    split = (n_pure + n_spect > 2) & ~(np.abs(h) >= kappa) & (n_spect > 0)
    contract = split & ((spect & ~np.uint64(reference)) == 0)
    leaf_size = np.maximum(2 - n_pure, 0)

    shapes = {(l, t): np.flatnonzero(contract & (n_spect == l) & (leaf_size == t)) for l, t
              in set(zip(n_spect[contract].tolist(), leaf_size[contract].tolist()))}
    count = (~split).astype(np.int64)
    for (l, t), idx in shapes.items():
        count[idx] = math.perm(l, l - t)
    slot = np.cumsum(count) - count
    seq = [np.empty(count.sum(), np.uint64), np.empty(count.sum(), np.uint64),
           np.empty(count.sum())]
    for arr, vals in zip(seq, (cre, ann, h)):
        arr[slot[~split]] = vals[~split]

    for (l, t), idx in shapes.items():
        template = _leaf_template(l, t)
        rest = spect[idx]
        bits = np.empty((idx.size, l), dtype=np.uint64)
        for j in range(l):
            bits[:, j] = rest & (~rest + np.uint64(1))
            rest = rest ^ bits[:, j]
        pure = (cre ^ ann)[idx]
        # per spectator: parity of the pure indices above it
        odd = np.bitwise_count(pure[:, None] & ~((bits << np.uint64(1)) - np.uint64(1))) & 1
        value = np.where(odd.sum(1) & 1, -h[idx], h[idx])
        for divisor in range(l, t, -1):
            value = value / divisor
        leaf_masks = bits @ template.T
        leaf_odd = (odd.astype(np.uint64) @ template.T) & np.uint64(1)
        pos = slot[idx][:, None] + np.arange(template.shape[0])
        seq[0][pos] = (cre ^ spect)[idx][:, None] | leaf_masks
        seq[1][pos] = (ann ^ spect)[idx][:, None] | leaf_masks
        seq[2][pos] = np.where(leaf_odd, -value[:, None], value[:, None])

    (cre, ann), coeffs = _merge_first_seen((seq[0], seq[1]), seq[2])
    return FermionOperator.from_arrays(cre, ann, coeffs, op.constant).pruned()
