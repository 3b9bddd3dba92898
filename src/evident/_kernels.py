"""NumPy kernels behind mass-function queries and the orthogonal sum.

Focal sets are passed as a uint64 bitmask array plus an aligned float64 mass
array.
"""

from __future__ import annotations

import numpy as np


def belief_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals contained in ``target``."""
    return float(masses[(bits & ~target) == 0].sum())


def plausibility_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals intersecting ``target``."""
    return float(masses[(bits & target) != 0].sum())


def singleton_sums(
    bits: np.ndarray, masses: np.ndarray, n_atoms: int
) -> tuple[list[float], list[float]]:
    """Belief and plausibility of every singleton, in atom order.

    The atom x focal masks are built once; each row is then summed with the
    same masked ``.sum()`` as :func:`belief_sum` and :func:`plausibility_sum`,
    so every value is bit-identical to theirs.
    """
    atoms = np.left_shift(np.uint64(1), np.arange(n_atoms, dtype=np.uint64))
    inside = (bits[None, :] & ~atoms[:, None]) == 0
    meets = (bits[None, :] & atoms[:, None]) != 0
    return (
        [float(masses[row].sum()) for row in inside],
        [float(masses[row].sum()) for row in meets],
    )


def combine_products(
    bits1: np.ndarray, w1: np.ndarray, bits2: np.ndarray, w2: np.ndarray
):
    """Grouped pairwise intersection products of two focal sets.

    Returns (group_bits, group_sums): the sorted distinct intersection
    bitmasks (possibly including 0, the conflict group) and the summed
    products landing on each.
    """
    inter = (bits1[:, None] & bits2[None, :]).ravel()
    prod = (w1[:, None] * w2[None, :]).ravel()
    group_bits, inverse = np.unique(inter, return_inverse=True)
    group_sums = np.bincount(inverse, weights=prod, minlength=group_bits.shape[0])
    return group_bits, group_sums
