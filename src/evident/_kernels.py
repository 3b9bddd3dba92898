"""NumPy kernels behind mass-function queries and the orthogonal sum.

Focal sets are passed as a uint64 bitmask array plus an aligned float64 mass
array. Every sum here follows one rule: a weighted ``np.bincount`` adds each
bin's masses in input order, starting from 0.0. A mass of 0.0 added for a row
that misses a bin leaves the bin as it is, so a sum over a masked array
equals the sum over the rows the mask keeps, bit for bit, and two kernels that
add the same rows in the same order agree to the last bit.

:func:`belief_sum` and :func:`plausibility_sum` are the masked sums for one
target, so their scratch arrays grow with the focal count alone.

:func:`atom_sums` is every atom's belief and plausibility at once, for many
steps, from flat (step, mask, mass) rows: one step is a mass function's
``singleton_intervals``, a block of steps is a block of the replay. Its cell
(k, a) adds the same masses in the same order as :func:`plausibility_sum` of
atom a over step k's rows, and its scratch is bounded by taking the atoms a
chunk of at most ``_CHUNK_CELLS`` (row, atom) cells at a time.

:func:`combine_products` pools the products of every focal pair on the pair's
intersection by one of two groupings, chosen from the input size alone:

- when the frame's power set is no larger than the pair count
  (``2**n_atoms <= pairs``), the intersection masks index a dense array of
  ``2**n_atoms`` bins directly, so no sort is needed and the bins take no more
  memory than the products;
- otherwise ``np.unique`` sorts the masks into groups.

Both return the same arrays bit for bit: groups ascend by mask, and each
group's products are added in input order.

:func:`support_products` is the same pooling for many sums at once, each of
an accumulator with a two-focal simple support, as the aged replay folds
every step of a block in lockstep. Rows are grouped by (step, mask) by a
least-significant-digit radix sort: numpy's stable sort of 16-bit keys, over
the mask 16 bits at a time and then over the block-local step id, so no
composite key has to fit in the 64 bits a 64-atom mask already fills.
"""

from __future__ import annotations

import numpy as np


# (row, atom) cells one chunk of atom_sums holds at once. By tracemalloc, a
# chunk's scratch grows by 17 bytes a cell over about 70 kB of NumPy's cast
# buffer, so a full chunk peaks near 140 kB; a chunk takes at least one atom,
# so past this many rows the kernel holds about 26 bytes a row. On the
# 16-atom benchmark replays, 2**10 to 2**14 cells made no resolved
# difference in CPU time, and 2**14 held 0.3 MB more at peak (a shared
# 2-vCPU x86 machine)
_CHUNK_CELLS = 1 << 12


def _sum_where(hit: np.ndarray, masses: np.ndarray) -> float:
    # bin 1 adds the masses of the hits in input order
    return float(np.bincount(hit, weights=masses, minlength=2)[1])


def belief_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals contained in ``target``, added in input order."""
    return _sum_where((bits & ~target) == 0, masses)


def plausibility_sum(bits: np.ndarray, masses: np.ndarray, target: np.uint64) -> float:
    """Total mass of focals intersecting ``target``, added in input order."""
    return _sum_where((bits & target) != 0, masses)


def atom_sums(
    step: np.ndarray, bits: np.ndarray, masses: np.ndarray, n_steps: int, n_atoms: int
):
    """Every atom's belief and plausibility sums at each of ``n_steps`` steps.

    Row i is the non-empty focal ``bits[i]`` of step ``step[i]`` with mass
    ``masses[i]``; the rows of a step need not be adjacent. Returns (bel, pl),
    each of shape (n_steps, n_atoms): bel[k, a] adds the masses of step k's
    rows on exactly atom a, pl[k, a] those of its rows holding a, both in
    input order, so a step with no rows reads 0.0.
    """
    step = step.astype(np.intp, copy=False)
    atom_bits = np.left_shift(np.uint64(1), np.arange(n_atoms, dtype=np.uint64))
    # a non-empty mask with one bit set is a singleton
    single = (bits & (bits - np.uint64(1))) == 0
    cell = step[single] * n_atoms + np.searchsorted(atom_bits, bits[single])
    bel = np.bincount(cell, weights=masses[single], minlength=n_steps * n_atoms)
    pl = np.empty((n_atoms, n_steps))
    width = min(n_atoms, max(1, _CHUNK_CELLS // max(1, bits.shape[0])))
    # chunk cell (a, i) adds into bin a * n_steps + step[i], in every chunk
    cells = (step + n_steps * np.arange(width)[:, None]).ravel()
    for lo in range(0, n_atoms, width):
        chunk = atom_bits[lo : lo + width, None]
        # a miss adds 0.0: masses are finite and non-negative
        held = masses * ((bits & chunk) != 0)
        sums = np.bincount(
            cells[: held.size], weights=held.ravel(), minlength=chunk.shape[0] * n_steps
        )
        pl[lo : lo + width] = sums.reshape(chunk.shape[0], n_steps)
    return bel.reshape(n_steps, n_atoms), pl.T


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
