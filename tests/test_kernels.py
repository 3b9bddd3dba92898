"""The NumPy kernels, on full-width (64-atom) bitmasks and against references."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evident import _kernels as K

from .oracles import grouped_products_oracle


def test_sixty_four_atom_masks_supported():
    bits = np.array([1, 1 << 63, (1 << 64) - 1], np.uint64)
    weights = np.array([0.25, 0.25, 0.5])
    target = np.uint64((1 << 64) - 1)
    assert K.belief_sum(bits, weights, target) == 1.0
    assert K.plausibility_sum(bits, weights, np.uint64(1 << 63)) == 0.75


def _operands(rng, n_atoms, size1, size2, dust):
    high = 1 << n_atoms
    bits1 = rng.integers(0, high, size1, dtype=np.uint64, endpoint=False)
    bits2 = rng.integers(0, high, size2, dtype=np.uint64, endpoint=False)
    w1, w2 = rng.random(size1), rng.random(size2)
    if dust:
        # subnormal and zero weights: some products underflow to 0.0
        w1[::3] = 5e-324
        w2[::2] = 0.0
    return bits1, w1, bits2, w2


def _assert_matches_the_oracle(got, bits1, w1, bits2, w2):
    want = grouped_products_oracle(bits1, w1, bits2, w2)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(1, 20),
    size1=st.integers(1, 400),
    size2=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    dust=st.booleans(),
    chunk_rows=st.sampled_from([1, 3, None]),
)
@example(n_atoms=12, size1=64, size2=64, seed=0, dust=False, chunk_rows=None)  # pairs == 2**n: dense
@example(n_atoms=12, size1=63, size2=65, seed=0, dust=True, chunk_rows=None)  # pairs == 2**n - 1: sort
@example(n_atoms=16, size1=320, size2=400, seed=1, dust=True, chunk_rows=None)
@example(n_atoms=8, size1=64, size2=40, seed=2, dust=True, chunk_rows=1)
@example(n_atoms=8, size1=64, size2=40, seed=3, dust=True, chunk_rows=3)  # a last chunk of 1 row
# the fuse-dense benchmark's shape: one leading row and 5 000 pairs a chunk
@example(n_atoms=16, size1=64, size2=5000, seed=4, dust=False, chunk_rows=None)
def test_combine_products_matches_the_sorting_reference(
    n_atoms, size1, size2, seed, dust, chunk_rows
):
    # the dense sum takes chunk_rows leading rows at a time, or its default
    bits1, w1, bits2, w2 = _operands(np.random.default_rng(seed), n_atoms, size1, size2, dust)
    chunk_cells = K._CHUNK_CELLS if chunk_rows is None else chunk_rows * size2
    with mock.patch.object(K, "_CHUNK_CELLS", chunk_cells):
        got = K.combine_products(bits1, w1, bits2, w2, n_atoms)
    _assert_matches_the_oracle(got, bits1, w1, bits2, w2)


# (bits1, w1, bits2, w2) on two atoms, and the groups the products land in
_UNDERFLOWS = [
    # group 1's products all underflow
    (([1, 2], [5e-324, 1.0], [1, 2], [5e-324, 1.0]), [0, 1, 2], [1e-323, 0.0, 1.0]),
    # group 1 gets only products of 0.0, from the first and the second row
    (([1, 3], [1e-200, 1e-200], [1, 2], [1e-200, 0.5]), [0, 1, 2], [5e-201, 0.0, 5e-201]),
    # group 2 gets only a product of 0.0, in a row after group 1's positive ones
    (([1, 2], [0.5, 1e-200], [1, 3], [0.5, 1e-200]), [0, 1, 2], [5e-201, 0.25, 0.0]),
    # both operands are positive, and group 1 gets only the least product:
    # 2**-1074, the least subnormal, so no product underflows; then 2**-1075,
    # which rounds to 0.0
    (
        ([1, 2], [2.0**-537, 1.0], [1, 2], [2.0**-537, 1.0]),
        [0, 1, 2],
        [2.0**-536, 2.0**-1074, 1.0],
    ),
    (
        ([1, 2], [2.0**-538, 1.0], [1, 2], [2.0**-537, 1.0]),
        [0, 1, 2],
        [2.0**-538 + 2.0**-537, 0.0, 1.0],
    ),
]


def test_combine_products_keeps_a_group_whose_products_underflow():
    # one leading row a chunk, then both rows in one chunk
    for chunk_cells in (1, K._CHUNK_CELLS):
        for (bits1, w1, bits2, w2), want_bits, want_sums in _UNDERFLOWS:
            bits1, bits2 = np.array(bits1, np.uint64), np.array(bits2, np.uint64)
            w1, w2 = np.array(w1), np.array(w2)
            with mock.patch.object(K, "_CHUNK_CELLS", chunk_cells):
                got = K.combine_products(bits1, w1, bits2, w2, 2)
            assert got[0].tolist() == want_bits
            assert got[1].tolist() == want_sums
            _assert_matches_the_oracle(got, bits1, w1, bits2, w2)


def test_dense_sums_add_each_bin_in_pair_order():
    # np.add.at must add unbuffered and in index order, as np.bincount does:
    # reordered, these three products round to another last bit
    fed = np.array([1.0, 2.0**-53, 2.0**-53])
    one_bin = np.zeros(3, np.intp)
    lead = np.array([1], np.uint64), np.array([1.0])
    for values, want in ((fed, 1.0), (fed[::-1], 1.0 + 2.0**-52)):
        at = np.zeros(1)
        np.add.at(at, one_bin, values)
        assert at[0] == np.bincount(one_bin, weights=values)[0] == want
        got = K.combine_products(*lead, np.ones(3, np.uint64), values, 1)
        assert got[0].tolist() == [1] and got[1].tolist() == [want]


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_sum_holds_the_bins_and_one_chunk():
    # 64 x 16 384 focals on 16 atoms: about a million pairs, 16 MB as one
    # outer product of masks and masses; the 2**16 bins and the arrays
    # returned from them take under 2 MB
    rng = np.random.default_rng(0)
    bits1 = (rng.choice((1 << 16) - 1, 64, replace=False) + 1).astype(np.uint64)
    bits2 = (rng.choice((1 << 16) - 1, 1 << 14, replace=False) + 1).astype(np.uint64)
    w1, w2 = rng.random(64), rng.random(1 << 14)
    assert _traced_peak(lambda: K.combine_products(bits1, w1, bits2, w2, 16)) < 3 << 20


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 200))
def test_combine_products_on_sixty_four_atoms_sorts(seed, size):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False)
    bits[0] = (1 << 64) - 1
    weights = rng.random(size)
    other = bits[::-1].copy()
    got = K.combine_products(bits, weights, other, weights, 64)
    want = grouped_products_oracle(bits, weights, other, weights)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=100, deadline=None)
@given(
    n_atoms=st.sampled_from([1, 3, 12, 16, 17, 40, 57, 60, 64]),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=65),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_atoms=64, sizes=[3, 1, 5], seed=0)
# the key step * 2**n_atoms + mask at its width's edges: 16 bits, one stable
# 16-bit argsort; 17 and 63 bits, one packed pass; 64 bits, the step as the
# key's upper word
@example(n_atoms=12, sizes=[2] * 16, seed=1)
@example(n_atoms=12, sizes=[2] * 17, seed=2)
@example(n_atoms=60, sizes=[3] * 8, seed=3)
@example(n_atoms=60, sizes=[3] * 9, seed=4)
@example(n_atoms=57, sizes=[1] * 65, seed=5)
def test_support_products_matches_the_pairwise_reference(n_atoms, sizes, seed):
    # each step's rows are that step's focals grouped with its support's, bit
    # for bit as the reference pools the support's products (support first)
    rng = np.random.default_rng(seed)
    full = np.uint64((1 << n_atoms) - 1)
    focals = [
        np.unique(rng.integers(1, int(full), size, dtype=np.uint64, endpoint=True))
        for size in sizes
    ]
    steps = len(focals)
    focus = rng.integers(1, int(full), steps, dtype=np.uint64, endpoint=True)
    focus[::3] = full
    focus[1::4] = np.uint64(1) << np.uint64(n_atoms - 1)
    degree = rng.random(steps)
    degree[::4] = 0.0
    degree[2::5] = 1.0
    step = np.repeat(np.arange(steps, dtype=np.int16), [f.shape[0] for f in focals])
    bits = np.concatenate(focals)
    _assert_support_rows_match_the_pairwise_reference(
        step, bits, rng.random(bits.shape[0]), focus, degree, n_atoms
    )


def _assert_support_rows_match_the_pairwise_reference(
    step, bits, masses, focus, degree, n_atoms, leads=np.zeros(0, np.intp)
):
    # the accumulators whose first rows are in leads come first in their pairs
    full = np.uint64((1 << n_atoms) - 1)
    got_step, got_bits, got_sums = K.support_products(
        step, bits, masses, focus, degree, n_atoms, leads
    )
    assert np.all(np.diff(got_step) >= 0)
    assert np.array_equal(np.unique(got_step), np.unique(step))
    led = set(step[leads].tolist())
    for k in np.unique(step).tolist():
        mine, theirs = got_step == k, step == k
        pairs = [
            (np.array([focus[k], full]), np.array([degree[k], 1.0 - degree[k]])),
            (bits[theirs], masses[theirs]),
        ]
        first, second = pairs[::-1] if k in led else pairs
        want_bits, want_sums = grouped_products_oracle(*first, *second)
        assert got_bits[mine].tobytes() == want_bits.tobytes()
        assert got_sums[mine].tobytes() == want_sums.tobytes()


def _pool_by(rule):
    """``K._pool`` taking dense bins, or else the sort, whatever the sizes."""
    pool = K._pool

    def forced(chunks, size, rows):
        if rule == "dense":
            return pool(chunks, size, max(rows, size))
        # a wider key space only widens the sort's key
        return pool(chunks, max(size, rows + 1), rows)

    return forced


@settings(max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(1, 12),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    dust=st.booleans(),
    chunk_cells=st.sampled_from([1, 7, 64, K._CHUNK_CELLS]),
)
# two-focal accumulators, half of them leading their supports
@example(n_atoms=2, sizes=[2] * 12, seed=0, dust=False, chunk_cells=7)
@example(n_atoms=3, sizes=[2] * 8, seed=0, dust=False, chunk_cells=7)
@example(n_atoms=12, sizes=[2, 40, 2, 0, 2], seed=1, dust=True, chunk_cells=64)
# one step over many chunks
@example(n_atoms=8, sizes=[40], seed=2, dust=True, chunk_cells=1)
def test_support_products_dense_bins_match_the_sort(n_atoms, sizes, seed, dust, chunk_cells):
    # every round through dense bins and through _grouped: the same arrays,
    # bit for bit, and each step's pairwise reference
    rng = np.random.default_rng(seed)
    full = (1 << n_atoms) - 1
    focals = [np.unique(rng.integers(1, full, size, dtype=np.uint64, endpoint=True)) for size in sizes]
    steps = len(focals)
    step = np.repeat(np.arange(steps, dtype=np.int16), [f.shape[0] for f in focals])
    bits = np.concatenate(focals)
    masses = rng.random(bits.shape[0])
    if dust:
        # products of 2**-1074 by a degree below a half underflow to 0.0
        masses[::3] = 5e-324
    focus = rng.integers(1, full, steps, dtype=np.uint64, endpoint=True)
    focus[::3] = full
    degree = rng.random(steps)
    degree[::4] = 0.0
    degree[2::5] = 1.0
    first = np.cumsum([0] + [f.shape[0] for f in focals[:-1]])
    pairs = first[[f.shape[0] == 2 for f in focals]]
    leads = pairs[rng.random(pairs.shape[0]) < 0.5].astype(np.intp)
    # a lead whose support is on its first focal A, within its second B,
    # puts three products on A, and their order shows in the last bit
    focus[step[leads]] = bits[leads]
    got = []
    for rule in ("dense", "sort"):
        with mock.patch.object(K, "_pool", _pool_by(rule)), mock.patch.object(
            K, "_CHUNK_CELLS", chunk_cells
        ):
            got.append(K.support_products(step, bits, masses, focus, degree, n_atoms, leads))
            _assert_support_rows_match_the_pairwise_reference(
                step, bits, masses, focus, degree, n_atoms, leads
            )
    for dense, grouped in zip(*got):
        assert dense.dtype == grouped.dtype and dense.tobytes() == grouped.tobytes()


def test_support_rows_of_steps_on_one_mask_stay_apart():
    # every step holds the whole frame, with a support on it: each step's
    # products fall in one group on the whole frame, so only the step parts
    # adjacent groups, in one word and as the upper word of a 64-atom key
    rng = np.random.default_rng(0)
    for n_atoms in (3, 16, 40, 64):
        full = np.uint64((1 << n_atoms) - 1)
        step = np.arange(5, dtype=np.int16)
        bits, focus = np.full(5, full), np.full(5, full)
        _assert_support_rows_match_the_pairwise_reference(
            step, bits, rng.random(5), focus, rng.random(5), n_atoms
        )


def _seam_masks(rng, n_atoms, size):
    # two low parts, each under bit 16, so the masks agree on their low digit
    # or digits in pairs and differ above them: at the seams 16, 32, 48 and
    # 63, and at the frame's top bit
    low = rng.integers(0, 1 << min(n_atoms, 16), 2, dtype=np.uint64)
    seams = [b for b in (16, 32, 48, 63, n_atoms - 1) if b < n_atoms]
    high = np.zeros(size, np.uint64)
    for b in seams:
        high |= rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(b)
    return low[rng.integers(0, 2, size)] | high


@settings(max_examples=40, deadline=None)
@given(n_atoms=st.sampled_from([16, 17, 32, 33, 48, 64]), seed=st.integers(0, 2**32 - 1))
@example(n_atoms=64, seed=0)
def test_radix_passes_order_masks_that_differ_only_above_a_digit(n_atoms, seed):
    # every radix pass after the first must keep the order of the passes
    # before it: groups ascend by mask, and each adds in pair order
    rng = np.random.default_rng(seed)
    bits1, bits2 = _seam_masks(rng, n_atoms, 40), _seam_masks(rng, n_atoms, 50)
    w1, w2 = rng.random(40), rng.random(50)
    assert 40 * 50 < 1 << n_atoms  # the sort branch
    got = K.combine_products(bits1, w1, bits2, w2, n_atoms)
    _assert_matches_the_oracle(got, bits1, w1, bits2, w2)
    # two steps holding the same focals, each with its own support
    focals = np.unique(bits1)
    focus = _seam_masks(rng, n_atoms, 2)
    focus[focus == 0] = np.uint64(1) << np.uint64(n_atoms - 1)
    step = np.repeat(np.arange(2, dtype=np.int16), focals.shape[0])
    _assert_support_rows_match_the_pairwise_reference(
        step, np.tile(focals, 2), rng.random(step.shape[0]), focus, rng.random(2), n_atoms
    )


def _above_digit_keys(rng, size, seams):
    # Python ints that take one of two low parts, each under bit 16, and
    # random bits at the seams: they agree in pairs below the lowest seam
    low = rng.integers(1, 1 << 16, 2).tolist()
    keys = [low[i] for i in rng.integers(0, 2, size).tolist()]
    for b in seams:
        keys = [k | x << b for k, x in zip(keys, rng.integers(0, 2, size).tolist())]
    return keys


@settings(max_examples=30, deadline=None)
@given(n_atoms=st.sampled_from([40, 64]), seed=st.integers(0, 2**32 - 1))
@example(n_atoms=40, seed=0)
@example(n_atoms=64, seed=0)
def test_packed_passes_order_keys_that_differ_only_above_a_digit(n_atoms, seed):
    # a key wider than 64 - p bits, p the bit length of the row count, is
    # sorted a digit of 64 - p bits at a time. These keys, step * 2**n_atoms
    # + mask, agree in pairs below the first digit's top bit and differ only
    # there, at the second digit's lowest bit and at the key's top: 600 focals
    # on 2**14 chains make 1 200 products, so p = 11, a digit holds 53 bits,
    # and the 54- and 78-bit keys take two passes
    rng = np.random.default_rng(seed)
    rows, chains = 600, 1 << 14
    digit = 64 - (2 * rows).bit_length()
    width = n_atoms + (chains - 1).bit_length()
    assert digit < width <= 2 * digit
    # the keys repeat: a step's duplicate focals add into one group, in row
    # order
    keys = sorted(_above_digit_keys(rng, rows, (digit - 1, digit, width - 1)))
    step = np.array([k >> n_atoms for k in keys], np.int16)
    bits = np.array([k & ((1 << n_atoms) - 1) for k in keys], np.uint64)
    full = (1 << n_atoms) - 1
    focus = rng.integers(1, full, chains, dtype=np.uint64, endpoint=True)
    focus[::3] = full
    degree = rng.random(chains)
    degree[::4] = 0.0
    _assert_support_rows_match_the_pairwise_reference(
        step, bits, rng.random(rows), focus, degree, n_atoms
    )
    # one sum of 40 by 50 focals: 2 000 products, so p = 11 again, and a
    # 64-atom mask takes two passes
    seams = [b for b in (digit - 1, digit, n_atoms - 1) if b < n_atoms]
    bits1, bits2 = (
        np.array(_above_digit_keys(rng, size, seams), np.uint64) for size in (40, 50)
    )
    w1, w2 = rng.random(40), rng.random(50)
    assert (40 * 50).bit_length() == 64 - digit
    got = K.combine_products(bits1, w1, bits2, w2, n_atoms)
    _assert_matches_the_oracle(got, bits1, w1, bits2, w2)


def test_sorted_sums_free_the_rows_they_move():
    # the products' masks and masses are 16 bytes a pair, and the sort moves
    # them a pass at a time, freeing what it moved: 33 bytes a pair at peak on
    # 16 and on 64 atoms, and about 50 if the unsorted rows stayed alive
    rng = np.random.default_rng(0)
    for n_atoms, size in ((16, 200), (64, 300)):
        bits1, w1, bits2, w2 = _operands(rng, n_atoms, size, size, False)
        assert size * size < 1 << n_atoms  # the sort branch
        peak = _traced_peak(lambda: K.combine_products(bits1, w1, bits2, w2, n_atoms))
        assert peak < 44 * size * size
    # a lockstep round of 64 steps of 4 000 focals: 66 bytes a focal at peak
    # on 16 atoms, and about 106 if the unsorted rows stayed alive; 70 on 64
    # atoms, whose keys take two passes, where five radix passes peaked at 74
    step = np.repeat(np.arange(64, dtype=np.int16), 4000)
    masses, degree = rng.random(step.shape[0]), rng.random(64)
    for n_atoms, bound in ((16, 88), (64, 74)):
        full = (1 << n_atoms) - 1
        bits = rng.integers(1, full, step.shape[0], dtype=np.uint64, endpoint=True)
        focus = rng.integers(1, full, 64, dtype=np.uint64, endpoint=True)
        peak = _traced_peak(
            lambda: K.support_products(step, bits, masses, focus, degree, n_atoms)
        )
        assert peak < bound * step.shape[0]


@settings(max_examples=100, deadline=None)
@given(
    n_atoms=st.sampled_from([1, 2, 5, 16, 64]),
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
    chunk_cells=st.sampled_from([1, 40, K._CHUNK_CELLS]),
)
@example(n_atoms=64, sizes=[0, 12, 0, 3], seed=0, chunk_cells=40)
@example(n_atoms=3, sizes=[0, 0], seed=0, chunk_cells=K._CHUNK_CELLS)
def test_atom_sums_cells_match_the_one_target_sums(n_atoms, sizes, seed, chunk_cells):
    # each step's distinct focals, a third of them singletons, with the rows
    # of all steps shuffled together; a step of size 0 has no rows
    rng = np.random.default_rng(seed)
    high = 1 << n_atoms
    focals = [
        np.unique(
            np.concatenate([
                rng.integers(1, high, size - size // 3, dtype=np.uint64, endpoint=False),
                np.uint64(1) << rng.integers(0, n_atoms, size // 3, dtype=np.uint64),
            ])
        )
        for size in sizes
    ]
    step = np.repeat(np.arange(len(sizes)), [f.shape[0] for f in focals])
    bits = np.concatenate(focals)
    masses = rng.random(bits.shape[0])
    order = rng.permutation(bits.shape[0])
    step, bits, masses = step[order], bits[order], masses[order]
    with mock.patch.object(K, "_CHUNK_CELLS", chunk_cells):
        bel, pl = K.atom_sums(step, bits, masses, len(sizes), n_atoms)
    assert bel.shape == pl.shape == (len(sizes), n_atoms)
    for k in range(len(sizes)):
        mine = step == k
        for a in range(n_atoms):
            atom = np.uint64(1 << a)
            exact = masses[mine][bits[mine] == atom]
            assert bel[k, a] == (float(exact[0]) if exact.shape[0] else 0.0)
            assert bel[k, a] == K.belief_sum(bits[mine], masses[mine], atom)
            assert pl[k, a] == K.plausibility_sum(bits[mine], masses[mine], atom)


def _class_sums_reference(operands, n_atoms):
    """class_products one pair at a time in Python: each step's rows in
    order, each row's pairs in order, each product added to its class."""
    out = []
    for (bits1, w1), (bits2, w2) in operands:
        sums = [0.0] * (n_atoms + 2)
        for x, u in zip(bits1.tolist(), w1.tolist()):
            for y, v in zip(bits2.tolist(), w2.tolist()):
                meet = x & y
                if not meet:
                    sums[0] += u * v
                elif meet & (meet - 1):
                    sums[n_atoms + 1] += u * v
                else:
                    sums[meet.bit_length()] += u * v
        out.append([s.hex() for s in sums])
    return out


def _class_operands(rng, n_atoms, sizes):
    # each side's distinct masks, a third of them singletons
    def side(size):
        bits = np.concatenate([
            rng.integers(1, 1 << n_atoms, size - size // 3, dtype=np.uint64, endpoint=False),
            np.uint64(1) << rng.integers(0, n_atoms, size // 3, dtype=np.uint64),
        ])
        return bits, rng.random(bits.shape[0])

    return [(side(size1), side(size2)) for size1, size2 in sizes]


@settings(max_examples=100, deadline=None)
@given(
    n_atoms=st.sampled_from([1, 3, 16, 17, 40, 64]),
    sizes=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    chunk_cells=st.sampled_from([1, 7, 50, K._CHUNK_CELLS]),
)
# chunks that end inside a step, and a row longer than a chunk
@example(n_atoms=16, sizes=[(5, 9), (30, 30), (1, 2)], seed=0, chunk_cells=50)
@example(n_atoms=64, sizes=[(30, 30)], seed=1, chunk_cells=7)
def test_class_products_add_each_class_in_pair_order(n_atoms, sizes, seed, chunk_cells):
    operands = _class_operands(np.random.default_rng(seed), n_atoms, sizes)
    with mock.patch.object(K, "_CHUNK_CELLS", chunk_cells):
        got = K.class_products(operands, n_atoms)
    assert got.shape == (len(sizes), n_atoms + 2)
    assert [[s.hex() for s in row] for row in got.tolist()] == _class_sums_reference(
        operands, n_atoms
    )
    # the empty set's and the singletons' are the orthogonal sum's groups
    for row, (a, b) in zip(got.tolist(), operands):
        for mask, total in zip(*[g.tolist() for g in K.combine_products(*a, *b, n_atoms)]):
            if not mask & (mask - 1):
                assert row[mask.bit_length()] == total


def test_class_products_on_bit_63():
    # NumPy 1.x casts uint64 with a Python int to float64, where 2**63 and
    # 2**63 + 1 are one value: the kernel must keep its mask arithmetic in
    # uint64 to tell the singleton {a63} from {a0, a63}
    top = 1 << 63
    bits1 = np.array([top, top | 1, top | (1 << 62), (1 << 64) - 1], np.uint64)
    bits2 = np.array([top | 1, top, 1, (1 << 64) - 1, 2], np.uint64)
    w1, w2 = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.05, 0.15, 0.2, 0.25, 0.35])
    operands = [((bits1, w1), (bits2, w2))]
    got = K.class_products(operands, 64)
    assert [[s.hex() for s in row] for row in got.tolist()] == _class_sums_reference(operands, 64)
    assert got[0, 64] > 0.0 and got[0, 1] > 0.0 and got[0, 65] > 0.0
    masks = np.array([0, 1, top, top | 1, top >> 1, (1 << 64) - 1], np.uint64)
    assert K._classes(masks, 64).tolist() == [0, 1, 64, 65, 63, 65]
    # and every mask of a 12-atom frame, against Python's bit length
    masks = np.arange(1 << 12, dtype=np.uint64)
    want = [0 if not m else m.bit_length() if not m & (m - 1) else 13 for m in range(1 << 12)]
    assert K._classes(masks, 12).tolist() == want
