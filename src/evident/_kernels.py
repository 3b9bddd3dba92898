"""NumPy kernels behind mass-function queries and the orthogonal sum.

Focal sets are passed as a uint64 bitmask array plus an aligned float64 mass
array. Every sum here follows one rule: each bin adds its masses in input
order, starting from 0.0. A sum made in one pass is one weighted
``np.bincount``; a sum that goes on across chunks adds each chunk into the
same bins with ``np.add.at``, which is unbuffered. Both add in input order,
so the chunks add as one bincount would. ``np.add.at`` is fast only on NumPy
1.25 or later; older NumPy gives the same bits, more slowly. A mass of 0.0
added for a row that misses a bin leaves the bin as it is, so a sum over a
masked array equals the sum over the rows the mask keeps, bit for bit, and
two kernels that add the same rows in the same order agree to the last bit.

:func:`belief_sum` and :func:`plausibility_sum` are the masked sums for one
target, so their scratch arrays grow with the focal count alone;
:func:`ordered_total` is the unmasked one, the total an orthogonal sum scales
by.

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
  ``2**n_atoms`` bins directly, so no sort is needed. The pairs are made and
  added a chunk of whole leading rows at a time, at most ``_CHUNK_CELLS``
  pairs or one row, so the scratch is the bins and one chunk, never the
  whole outer product. A product that underflows to 0.0 still returns its
  group, and the zeros are tracked only when the least product can
  underflow: rounding is monotone, so when it does not, none does;
- otherwise the masks are sorted into groups by :func:`_grouped`. A key of
  at most 16 bits (a frame of up to 16 atoms) takes numpy's stable sort of
  its uint16 cast. A wider one is sorted a digit of 64 - p bits at a time,
  p the bit length of the row count, each digit with the row's position in
  its low p bits, by one in-place sort of unique uint64 keys a pass: one
  pass up to 42 atoms under the pair cap, two on 64 atoms.

Both return the same arrays bit for bit: groups ascend by mask, and each
group's products are added in input order.

:func:`support_products` is the same pooling for many sums at once, each of
an accumulator with a two-focal simple support, as the replays fold many
steps in lockstep. Its rows are grouped by the key step * 2**n_atoms + mask
by the same sort, built as one uint64 when it fits, so a 16-atom round of
up to 128 steps takes one pass and moves only its products. A key of 64
bits or more keeps the step as its upper word.

:func:`class_products` adds the pairwise products of many steps by the
class of their intersection alone: empty, each singleton, or the rest. It
needs no grouping: it makes each step's pairs as the dense
:func:`combine_products` does, by broadcasting whole leading rows, collects
them a chunk of whole steps or leading rows at a time, and adds each chunk
into the (step, class) bins with ``np.add.at``. So each class adds its
products in pair order, and the empty set's and the singletons' sums are
:func:`combine_products`' bits.
"""

from __future__ import annotations

import numpy as np


# Cells one chunk holds at once: (row, atom) cells of atom_sums, focal pairs
# of the dense combine_products and of class_products. An atom_sums chunk's
# scratch grows by 17 bytes a cell over about 70 kB of NumPy's cast buffer,
# and a chunk takes at least one atom, so past this many rows the kernel
# holds about 26 bytes a row. A dense chunk holds about 17 bytes a pair
# beside 9 bytes for each of the 2**n_atoms bins, and takes at least one
# leading row; a class_products chunk about 53 bytes a pair (tracemalloc,
# the peak's growth from 2**12 to 2**14-pair chunks, 16 and 64 atoms, one
# step of 256 x 256 pairs or 512 of 20 x 40). On the 16-atom benchmark
# replays, 2**10 to 2**14 cells made no resolved difference in CPU time, and
# 2**14 held 0.3 MB more at peak. On fuse-dense, a fold's median read 12.6,
# 14.8, 14.0 and 19.1 ms at 2**12, 2**13, 2**14 and 2**15 pairs, each within
# the others' spread up to 2**14, and 27.3 ms with the whole outer product
# built (perfbench, 3 to 7 runs of 10 s each, seed 1; a shared
# 2-vCPU x86 machine with 2 MB of L2 a core)
_CHUNK_CELLS = 1 << 12


def _sum_where(hit: np.ndarray, masses: np.ndarray) -> float:
    # bin 1 adds the masses of the hits in input order
    return float(np.bincount(hit, weights=masses, minlength=2)[1])


def ordered_total(values: np.ndarray) -> float:
    """The sum of ``values`` added in input order, as one bin of the rule."""
    return float(np.bincount(np.zeros(values.shape[0], np.intp), weights=values, minlength=1)[0])


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
    # chunk cell (a, i) adds into bin a * n_steps + step[i], in every chunk;
    # with one atom a chunk, that is step[i] itself: a copy of it would add 8
    # bytes a row to a replay block's peak
    cells = step if width == 1 else (step + n_steps * np.arange(width)[:, None]).ravel()
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
    products landing on each. Each sum adds its products in row-major pair
    order (every pair of ``bits1[0]``, then every pair of ``bits1[1]``, and
    so on), starting from 0.0.

    When ``2**n_atoms <= pairs``, the products are added into ``2**n_atoms``
    dense bins a chunk of whole ``bits1`` rows at a time, so the scratch is
    the bins and one chunk of at most ``_CHUNK_CELLS`` pairs or one row;
    otherwise the whole outer product is grouped by the sort of
    :func:`_grouped`, which keeps each group's products in pair order.
    """
    # a Python int, so a 64-atom frame cannot overflow and always sorts
    bins = 1 << n_atoms
    if bins <= bits1.shape[0] * bits2.shape[0]:
        sums = np.zeros(bins)
        # a product can underflow to 0.0, and its group must still be
        # returned; products are non-negative, so a bin with a positive
        # product has a positive sum. Rounding is monotone, so no product is
        # 0.0 when the least one is not: only then are the bins hit exactly
        # the bins with a positive sum, and the zeros need no tracking
        held = np.zeros(bins, dtype=bool)
        underflows = not float(w1.min()) * float(w2.min()) > 0.0
        rows = max(1, _CHUNK_CELLS // bits2.shape[0])
        for lo in range(0, bits1.shape[0], rows):
            # every mask is below 2**n_atoms <= pairs, so it fits an intp index
            index = (bits1[lo : lo + rows, None] & bits2).ravel().view(np.int64)
            prod = (w1[lo : lo + rows, None] * w2).ravel()
            # unbuffered, in index order: a chunk is whole rows of the
            # row-major pairs, so each bin adds its products in the order one
            # bincount over the whole outer product would
            np.add.at(sums, index, prod)
            if underflows:
                held[index[prod == 0.0]] = True
        held |= sums > 0.0
        group_index = np.flatnonzero(held)
        return group_index.astype(np.uint64), sums[group_index]
    _, group_bits, group_sums = _grouped(
        [None, (bits1[:, None] & bits2).ravel(), (w1[:, None] * w2).ravel()], n_atoms
    )
    return group_bits, group_sums


def class_products(operands: list, n_atoms: int) -> np.ndarray:
    """Each step's focal-pair products summed by the class of their intersection.

    ``operands`` holds one ((bits1, w1), (bits2, w2)) pair of focal sets per
    step. Returns an array of shape (steps, n_atoms + 2): column 0 adds the
    products on the empty set, column a + 1 those on exactly atom a, and the
    last those on every larger set, each in row-major pair order from 0.0, as
    :func:`combine_products` adds each group. So column 0 and the singleton
    columns are its sums of those groups, bit for bit.

    A step's pairs are made as the dense :func:`combine_products` makes them,
    by broadcasting whole ``bits1`` rows against ``bits2``: the whole step
    when it has at most ``_CHUNK_CELLS`` pairs, else pieces of at most that
    many pairs or one row. Pieces are collected in step order until they hold
    ``_CHUNK_CELLS`` pairs, so a chunk holds fewer than twice that many, or
    than that many and one row. Each chunk is classed by :func:`_classes` and
    added into the (step, class) bins by one ``np.add.at``, in pair order, so
    a step whose pairs span chunks adds as if in one.
    """
    width = n_atoms + 2
    sums = np.zeros(len(operands) * width)
    base, inter, prod = [], [], []
    held = 0
    for k, ((bits1, w1), (bits2, w2)) in enumerate(operands):
        rows = max(1, _CHUNK_CELLS // bits2.shape[0])
        for lo in range(0, bits1.shape[0], rows):
            inter.append((bits1[lo : lo + rows, None] & bits2).ravel())
            prod.append((w1[lo : lo + rows, None] * w2).ravel())
            base.append(k * width)
            held += inter[-1].shape[0]
            # a chunk ends once full, and at the last piece of the last step
            if held >= _CHUNK_CELLS or (k == len(operands) - 1 and lo + rows >= bits1.shape[0]):
                cells = np.repeat(base, [piece.shape[0] for piece in inter])
                cells += _classes(np.concatenate(inter), n_atoms)
                # unbuffered, in index order: the pieces are whole rows of
                # each step's row-major pairs, so each bin goes on adding in
                # pair order across chunks
                np.add.at(sums, cells, np.concatenate(prod))
                base, inter, prod, held = [], [], [], 0
    return sums.reshape(len(operands), width)


def _classes(bits: np.ndarray, n_atoms: int) -> np.ndarray:
    """Each mask's class: 0 when empty, a + 1 when exactly atom a, else n_atoms + 1."""
    # uint64 operands throughout: NumPy 1.x casts uint64 with a Python int to
    # float64. A mask of one bit 2**a has bit length a + 1 (frexp's
    # exponent), and 0 has 0
    single = (bits & (bits - np.uint64(1))) == 0
    return np.where(single, np.frexp(bits.astype(np.float64))[1], n_atoms + 1)


def support_products(
    step: np.ndarray,
    bits: np.ndarray,
    masses: np.ndarray,
    focus: np.ndarray,
    degree: np.ndarray,
    n_atoms: int,
    leads: np.ndarray | None = None,
):
    """Each accumulator's focals times its simple support, pooled by intersection.

    Row i is focal ``bits[i]`` of accumulator ``step[i]`` with mass
    ``masses[i]``; accumulator k's support puts ``degree[k]`` on ``focus[k]``
    and the rest on the whole frame, so focal A of mass m yields
    ``(A & focus, m * degree)`` and ``(A, m * (1 - degree))``. Returns
    (step, bits, sums): one row per distinct (step, mask), ascending by step
    and then by mask (possibly 0, the conflict group), each sum adding its
    products in input order.

    The products are in support-major order: every focal's product with the
    focus, then every focal's with the whole frame, as
    :func:`combine_products` orders them with the support first. ``leads``
    holds the first rows of two-focal accumulators whose products come in
    accumulator-major order instead, as with the accumulator first: the
    first focal's two products, then the second's.

    The products are grouped by :func:`_grouped` on their key
    step * 2**n_atoms + mask. Below 64 bits it is one uint64, built from the
    rows as ``(step << n_atoms) | A & focus`` and ``(step << n_atoms) | A``,
    and the step and the mask are read back off the sorted keys; a key of 64
    bits or more keeps the step as its upper word. The step returned is an
    int64 array.
    """
    rows = step.shape[0]
    # one cast: a gather by an intp index is about twice as fast as by int16
    index = step.astype(np.intp)
    n = np.uint64(n_atoms)
    step_bits = (degree.shape[0] - 1).bit_length()
    if n_atoms + step_bits < 64:
        # (A & F) | chain == (A | chain) & (F | chain): the chain's bits lie
        # above the frame's
        chain = np.arange(degree.shape[0], dtype=np.uint64) << n
        bits, focus = bits | chain[index], focus | chain
        high, width = None, n_atoms + step_bits
    else:
        high, width = np.concatenate([step, step]), 64 + step_bits
    products = [
        high,
        np.concatenate([bits & focus[index], bits]),
        np.concatenate([masses * degree[index], masses * (1.0 - degree)[index]]),
    ]
    if leads is not None and leads.shape[0]:
        # the first focal's product with the whole frame trades places with
        # the second focal's product with the focus
        swap = np.concatenate([leads + 1, leads + rows])
        back = np.concatenate([leads + rows, leads + 1])
        for column in products[1:]:
            column[swap] = column[back]
    del high, bits, index
    high, keys, sums = _grouped(products, width)
    if high is not None:
        return high.astype(np.int64), keys, sums
    return (keys >> n).view(np.int64), keys & np.uint64((1 << n_atoms) - 1), sums


def _grouped(rows: list, width: int):
    """Products summed per distinct key, ascending by key.

    ``rows`` is [high, low, products]: row i's key is the integer
    ``high[i] * 2**64 + low[i]`` of ``width`` bits, with high None when every
    key fits in low, and a width of at least 64 when not. The list is
    emptied: its arrays are handed over, so each pass frees the rows it
    moved. Returns (high, low, sums), one row per distinct key, ascending
    (high None as given), each sum adding its products in input order.

    A key of at most 16 bits is sorted by one stable argsort of its uint16
    cast; packing it with the position measured slower there. A wider key is
    sorted by least-significant-digit passes over digits of 64 - p bits, p
    the bit length of the row count: each pass sorts the uint64 keys
    ``digit << p | position`` in place. They are unique, so the order is the
    stable one whatever sort numpy picks, and each group adds its products in
    input order. When one digit holds the key, the key is read back off the
    sorted keys and only the products move.
    """
    high, low, prod = rows
    rows.clear()
    # the rows move one array at a time, which holds less than moving them
    # together
    if width <= 16:
        order = low.astype(np.uint16).argsort(kind="stable")
        low = low[order]
        prod = prod[order]
        del order
    else:
        p = np.uint64(low.shape[0].bit_length())
        digit = 64 - int(p)
        position = np.uint64((1 << int(p)) - 1)
        for shift in range(0, width, digit):
            if width <= digit:
                # one digit holds the key: it is sorted in place and read back
                keys, low = low, None
            else:
                # bits shift to shift + digit of the key; the shift by p below
                # drops those above. Under 2**24 rows a digit holds at least
                # 40 bits, so a key of a step under 2**15 above a 64-bit mask
                # takes two passes, both beginning in the low word
                keys = low >> np.uint64(shift)
                if high is not None and shift + digit > 64:
                    keys |= high.astype(np.uint64) << np.uint64(64 - shift)
            keys <<= p
            keys |= np.arange(keys.shape[0], dtype=np.uint64)
            keys.sort()
            if low is None:
                prod = prod[(keys & position).view(np.int64)]
                keys >>= p
                low = keys
            else:
                keys &= position
                keys = keys.view(np.int64)
                prod = prod[keys]
                low = low[keys]
                if high is not None:
                    high = high[keys]
            del keys
    first = np.empty(low.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(low[1:], low[:-1], out=first[1:])
    if high is not None:
        first[1:] |= high[1:] != high[:-1]
    # bincount adds in input order; np.add.reduceat would sum pairwise. Group
    # g's rows carry g + 1, so bin 0 stays empty
    sums = np.bincount(first.cumsum(), weights=prod)[1:]
    del prod
    return None if high is None else high[first], low[first], sums
