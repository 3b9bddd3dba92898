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

The pair kernels pool the products of focal pairs by a key, each bin adding
its products in pair order from 0.0, and all three by one routine,
:func:`_pool`, which takes the products as (key, product) chunks in pair
order and the size of the key space:

- when the key space is no larger than the products, each chunk is added
  into that many dense bins by ``np.add.at``, so no sort is needed and the
  scratch is the bins and one chunk of at most ``_CHUNK_CELLS`` products or
  one leading row, never all the products. The bins begin at -0.0, so a
  key that only products of 0.0 land on, as when they underflow, is still
  told from a key that none lands on by its sign;
- otherwise the products are made whole and grouped by :func:`_grouped`. A
  key of at most 16 bits takes numpy's stable sort of its uint16 cast. A
  wider one is sorted a digit of 64 - p bits at a time, p the bit length of
  the product count, each digit with the product's position in its low p
  bits, by one in-place sort of unique uint64 keys a pass: one pass up to
  42 atoms under the pair cap, two on 64 atoms.

Both return the same arrays bit for bit: keys ascend, and each key's
products are added in pair order. The kernels differ only in their keys and
chunks:

- :func:`combine_products` keys the pairs of two focal sets by their
  intersection, in ``2**n_atoms`` bins, a chunk of whole leading rows of the
  outer product at a time;
- :func:`support_products` does so for many sums at once, each of an
  accumulator with a two-focal simple support, as the replays fold many
  steps in lockstep. Its key is step * 2**n_atoms + mask, one uint64 when
  it fits, so a 16-atom round of up to 128 steps sorts in one pass and
  moves only its products; a key of 64 bits or more keeps the step as its
  upper word;
- :func:`class_products` keys each step's pairs by the step and the class
  of their intersection alone: empty, each singleton, or the rest. Its
  chunks are whole steps or leading rows, made as :func:`combine_products`
  makes them, so its empty set's and singletons' sums are those of
  :func:`combine_products`, bit for bit.
"""

from __future__ import annotations

import numpy as np


# Cells one chunk holds at once: (row, atom) cells of atom_sums, and the
# products that _pool adds into dense bins a chunk at a time. An atom_sums
# chunk's scratch grows by 17 bytes a cell over about 70 kB of NumPy's cast
# buffer, and a chunk takes at least one atom, so past this many rows the
# kernel holds about 26 bytes a row. Beside 8 bytes a bin, a dense chunk of
# combine_products holds about 17 bytes a pair and takes at least one
# leading row, one of class_products about 53 bytes a pair, and one of
# support_products about 16 bytes a product (tracemalloc, the peak's growth
# from 2**12 to 2**14-product chunks, 16 and 64 atoms: one step of 256 x 256
# pairs or 512 of 20 x 40, and 1 or 4 chains of 2**15 focals on 16 atoms).
# A dense support round of one chain of 3 x 10**4 to 6 x 10**4 focals on 16
# atoms ran 10 to 20 % slower at 2**12 products than at 2**14 to 2**18,
# about 0.3 ms a round, and rounds of 8 and 30 chains alike (in-process CPU
# time, best of 5; the machine below). On the 16-atom benchmark
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


def _pool(chunks, size: int, rows: int):
    """The products of ``chunks`` summed per distinct key: (high, low, sums).

    ``chunks(cells)`` yields [high, low, products] chunks of the ``rows``
    products in pair order, each of at most ``cells`` products or one
    leading row, so one chunk when ``cells`` is ``rows``. Product i's key is
    ``high[i] * 2**64 + low[i]``, below ``size``, with high None when every
    key fits in low; products are non-negative. Returns one row per key that
    a product lands on, ascending (high None when dense, else as given),
    each sum adding its products in pair order from 0.0.
    """
    if size <= rows:
        # -0.0 + x is x for every x, and -0.0 + 0.0 is 0.0: bins begun at
        # -0.0 add as from 0.0, and those that a product lands on, even one
        # that underflowed to 0.0, are exactly those whose sign bit clears
        sums = np.full(size, -0.0)
        for _, key, prod in chunks(_CHUNK_CELLS):
            # unbuffered, in index order: the chunks come in pair order, so
            # each bin adds its products in the order one bincount would.
            # Every key is below size <= rows, so it fits an intp index
            np.add.at(sums, key.view(np.int64), prod)
        keys = np.flatnonzero(~np.signbit(sums))
        return None, keys.astype(np.uint64), sums[keys]
    if not rows:
        # np.bincount reads no weights as int64
        return None, np.zeros(0, np.uint64), np.zeros(0)
    (whole,) = chunks(rows)
    return _grouped(whole, (size - 1).bit_length())


def combine_products(
    bits1: np.ndarray, w1: np.ndarray, bits2: np.ndarray, w2: np.ndarray, n_atoms: int
):
    """Grouped pairwise intersection products of two focal sets on ``n_atoms``.

    Returns (group_bits, group_sums): the sorted distinct intersection
    bitmasks (possibly including 0, the conflict group) and the summed
    products landing on each. Each sum adds its products in row-major pair
    order (every pair of ``bits1[0]``, then every pair of ``bits1[1]``, and
    so on), starting from 0.0. The pairs are made a chunk of whole ``bits1``
    rows at a time for :func:`_pool`'s ``2**n_atoms`` dense bins, or all at
    once for its sort.
    """

    def chunks(cells):
        rows = max(1, cells // bits2.shape[0])
        for lo in range(0, bits1.shape[0], rows):
            pairs = slice(lo, lo + rows), None
            yield [None, (bits1[pairs] & bits2).ravel(), (w1[pairs] * w2).ravel()]

    # a Python int, so a 64-atom frame cannot overflow and always sorts
    return _pool(chunks, 1 << n_atoms, bits1.shape[0] * bits2.shape[0])[1:]


def class_products(operands: list, n_atoms: int) -> np.ndarray:
    """Each step's focal-pair products summed by the class of their intersection.

    ``operands`` holds one ((bits1, w1), (bits2, w2)) pair of focal sets per
    step. Returns an array of shape (steps, n_atoms + 2): column 0 adds the
    products on the empty set, column a + 1 those on exactly atom a, and the
    last those on every larger set, each in row-major pair order from 0.0, as
    :func:`combine_products` adds each group. So column 0 and the singleton
    columns are its sums of those groups, bit for bit.

    A step's pairs are made as :func:`combine_products` makes them, by
    broadcasting whole ``bits1`` rows against ``bits2``: the whole step when
    it has at most a chunk's worth of pairs (``_CHUNK_CELLS`` for dense bins,
    every pair for the sort), else pieces of at most that many pairs or one
    row. Pieces are collected in step order until they hold a chunk's worth,
    so a chunk holds fewer than twice that many, or than that many and one
    row; a pair's key is step * (n_atoms + 2) + class, by :func:`_classes`.
    """
    width = n_atoms + 2

    def chunks(cells):
        base, inter, prod = [], [], []
        held = 0
        for k, ((bits1, w1), (bits2, w2)) in enumerate(operands):
            rows = max(1, cells // bits2.shape[0])
            for lo in range(0, bits1.shape[0], rows):
                inter.append((bits1[lo : lo + rows, None] & bits2).ravel())
                prod.append((w1[lo : lo + rows, None] * w2).ravel())
                base.append(k * width)
                held += inter[-1].shape[0]
                # a chunk ends once full, and at the last piece of the last step
                if held >= cells or (k == len(operands) - 1 and lo + rows >= bits1.shape[0]):
                    keys = np.repeat(base, [piece.shape[0] for piece in inter])
                    keys += _classes(np.concatenate(inter), n_atoms)
                    yield [None, keys.view(np.uint64), np.concatenate(prod)]
                    base, inter, prod, held = [], [], [], 0

    size = len(operands) * width
    pairs = sum(a[0].shape[0] * b[0].shape[0] for a, b in operands)
    _, keys, sums = _pool(chunks, size, pairs)
    out = np.zeros(size)
    out[keys] = sums
    return out.reshape(len(operands), width)


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
    leads: np.ndarray = np.zeros(0, np.intp),
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

    The products are pooled by :func:`_pool` on their key
    step * 2**n_atoms + mask, a chunk of consecutive products at a time.
    Below 64 bits it is one uint64, made from the rows as
    ``(A | step << n_atoms) & (focus | step << n_atoms)`` and
    ``A | step << n_atoms``, and the step and the mask are read back off the
    keys; a key of 64 bits or more keeps the step as its upper word and is
    always sorted. The step returned is an int64 array.
    """
    rows, chains, n = step.shape[0], degree.shape[0], np.uint64(n_atoms)
    if n_atoms + (chains - 1).bit_length() < 64:
        # (A & F) | chain == (A | chain) & (F | chain): the chain's bits lie
        # above the frame's
        chain, high, size = np.arange(chains, dtype=np.uint64) << n, None, chains << n_atoms
    else:
        chain, high, size = np.zeros(chains, np.uint64), step, chains << 64
    # product p < rows is row p's with the focus, rows + p row p's with the
    # whole frame
    supports = ((focus | chain, degree), (None, 1.0 - degree))

    def chunks(cells):
        # each row's chain, a gather by an intp index being about twice as
        # fast as by int16, and its mask with the chain's bits set: made here,
        # so that a round sorted whole frees them before its sort
        index = step.astype(np.intp)
        masks = bits | chain[index]

        def made(at, support, weight, key, prod):
            # the products of the rows ``at`` with one focal of their
            # supports, the whole frame (None) keeping each mask. Rows ascend
            # by chain, so rows of one chain, which take its support as
            # scalars rather than gathers, are those whose first and last agree
            i = index[at]
            i = i[0] if i[0] == i[-1] else i
            np.bitwise_and(masks[at], masks[at] if support is None else support[i], out=key)
            np.multiply(masses[at], weight[i], out=prod)

        half = leads.shape[0]
        if half:
            # a lead's first focal's product with the whole frame trades
            # places with its second focal's product with the focus
            moved = np.concatenate([leads + 1, leads + rows])
            moved_key, moved_prod = np.empty(2 * half, np.uint64), np.empty(2 * half)
            made(leads, *supports[1], moved_key[:half], moved_prod[:half])
            made(leads + 1, *supports[0], moved_key[half:], moved_prod[half:])
        for lo in range(0, 2 * rows, cells):
            hi = min(lo + cells, 2 * rows)
            cut = max(0, min(hi, rows) - lo)
            key, prod = np.empty(hi - lo, np.uint64), np.empty(hi - lo)
            parts = slice(lo, lo + cut), slice(lo + cut - rows, hi - rows)
            for at, support, a, b in zip(parts, supports, (0, cut), (cut, hi - lo)):
                if a < b:
                    made(at, *support, key[a:b], prod[a:b])
            if half:
                a, b = np.searchsorted(moved, [lo, hi])
                key[moved[a:b] - lo], prod[moved[a:b] - lo] = moved_key[a:b], moved_prod[a:b]
            yield [None if high is None else np.concatenate([high[at] for at in parts]), key, prod]

    high, keys, sums = _pool(chunks, size, 2 * rows)
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
