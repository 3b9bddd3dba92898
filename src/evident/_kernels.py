"""NumPy kernels behind mass-function queries and the orthogonal sum.

Focal sets are passed as a uint64 bitmask array plus an aligned float64 mass
array.

:func:`belief_sum` and :func:`plausibility_sum` are the masked sums for one
target, so their scratch arrays grow with the focal count alone. Every
interval the package reports reads them, except an atom's belief, which is
the mass on exactly that atom.

:func:`combine_products` pools the products of every focal pair on the pair's
intersection by one of two groupings, chosen from the input size alone:

- when the frame's power set is no larger than the pair count
  (``2**n_atoms <= pairs``), the intersection masks index a dense array of
  ``2**n_atoms`` bins directly, so no sort is needed and the bins take no more
  memory than the products;
- otherwise ``np.unique`` sorts the masks into groups.

Both return the same arrays bit for bit: groups ascend by mask, and each
group's products are added in input order by a weighted ``np.bincount``.
"""

from __future__ import annotations

import numpy as np


def belief_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals contained in ``target``."""
    return float(masses[(bits & ~target) == 0].sum())


def plausibility_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals intersecting ``target``."""
    return float(masses[(bits & target) != 0].sum())


def combine_products(
    bits1: np.ndarray, w1: np.ndarray, bits2: np.ndarray, w2: np.ndarray, n_atoms: int
):
    """Grouped pairwise intersection products of two focal sets on ``n_atoms``.

    Returns (group_bits, group_sums): the sorted distinct intersection
    bitmasks (possibly including 0, the conflict group) and the summed
    products landing on each.
    """
    inter = (bits1[:, None] & bits2[None, :]).ravel()
    prod = (w1[:, None] * w2[None, :]).ravel()
    # a Python int, so a 64-atom frame cannot overflow and always sorts
    bins = 1 << n_atoms
    if bins <= inter.shape[0]:
        # every mask is below 2**n_atoms <= pairs, so it fits an intp index;
        # occupancy is counted, not read off the sums, because a product can
        # underflow to 0.0 and its group must still be returned
        index = inter.view(np.int64)
        group_index = np.flatnonzero(np.bincount(index, minlength=bins))
        group_sums = np.bincount(index, weights=prod, minlength=bins)[group_index]
        return group_index.astype(np.uint64), group_sums
    group_bits, inverse = np.unique(inter, return_inverse=True)
    group_sums = np.bincount(inverse, weights=prod, minlength=group_bits.shape[0])
    return group_bits, group_sums
