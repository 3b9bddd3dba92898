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

:func:`support_products` is the same pooling for many sums at once, each of
an accumulator with a two-focal simple support, as the aged replay folds
every step of a block in lockstep. Rows are grouped by (step, mask) by a
least-significant-digit radix sort: numpy's stable sort of 16-bit keys, over
the mask 16 bits at a time and then over the block-local step id, so no
composite key has to fit in the 64 bits a 64-atom mask already fills.
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


def support_products(
    step: np.ndarray,
    bits: np.ndarray,
    masses: np.ndarray,
    focus: np.ndarray,
    degree: np.ndarray,
    n_atoms: int,
):
    """Each accumulator's focals times its simple support, pooled by intersection.

    Row i is focal ``bits[i]`` of accumulator ``step[i]`` with mass
    ``masses[i]``; accumulator k's support puts ``degree[k]`` on ``focus[k]``
    and the rest on the whole frame, so focal A of mass m yields
    ``(A & focus, m * degree)`` and ``(A, m * (1 - degree))``. Returns
    (step, bits, sums): one row per distinct (step, mask), ascending by step
    and then by mask (possibly 0, the conflict group), each sum adding its
    products in input order.
    """
    inter = np.concatenate([bits & focus[step], bits])
    prod = np.concatenate([masses * degree[step], masses * (1.0 - degree)[step]])
    step = np.concatenate([step, step])
    # least significant digit first: numpy sorts 16-bit keys stably, by radix.
    # The rows move after each pass, one array at a time, which holds less
    # than composing the orders.
    for shift in range(0, n_atoms, 16):
        order = np.argsort((inter >> np.uint64(shift)).astype(np.uint16), kind="stable")
        step = step[order]
        inter = inter[order]
        prod = prod[order]
    order = np.argsort(step, kind="stable")
    step = step[order]
    inter = inter[order]
    prod = prod[order]
    del order
    first = np.ones(step.shape[0], dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (inter[1:] != inter[:-1])
    start = np.flatnonzero(first)
    # bincount adds in input order; np.add.reduceat would sum pairwise
    sums = np.bincount(np.cumsum(first) - 1, weights=prod, minlength=start.shape[0])
    return step[start], inter[start], sums
