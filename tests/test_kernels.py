"""The NumPy kernels, on full-width (64-atom) bitmasks and against references."""

from __future__ import annotations

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


@settings(max_examples=150, deadline=None)
@given(
    n_atoms=st.integers(1, 20),
    size1=st.integers(1, 400),
    size2=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    dust=st.booleans(),
)
@example(n_atoms=12, size1=64, size2=64, seed=0, dust=False)  # pairs == 2**n: dense
@example(n_atoms=12, size1=63, size2=65, seed=0, dust=True)  # pairs == 2**n - 1: sort
@example(n_atoms=16, size1=320, size2=400, seed=1, dust=True)
def test_combine_products_matches_the_sorting_reference(n_atoms, size1, size2, seed, dust):
    bits1, w1, bits2, w2 = _operands(np.random.default_rng(seed), n_atoms, size1, size2, dust)
    got_bits, got_sums = K.combine_products(bits1, w1, bits2, w2, n_atoms)
    want_bits, want_sums = grouped_products_oracle(bits1, w1, bits2, w2)
    assert got_bits.dtype == want_bits.dtype and got_sums.dtype == want_sums.dtype
    assert np.array_equal(got_bits, want_bits)
    assert np.array_equal(got_sums, want_sums)


def test_combine_products_keeps_a_group_whose_products_underflow():
    bits = np.array([1, 2], np.uint64)
    weights = np.array([5e-324, 1.0])
    got_bits, got_sums = K.combine_products(bits, weights, bits, weights, 2)
    assert got_bits.tolist() == [0, 1, 2]
    assert got_sums.tolist() == [1e-323, 0.0, 1.0]


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
    n_atoms=st.sampled_from([1, 3, 16, 17, 40, 64]),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_atoms=64, sizes=[3, 1, 5], seed=0)
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
    masses = [rng.random(f.shape[0]) for f in focals]
    focus = rng.integers(1, int(full), steps, dtype=np.uint64, endpoint=True)
    focus[::3] = full
    focus[1::4] = np.uint64(1) << np.uint64(n_atoms - 1)
    degree = rng.random(steps)
    degree[::4] = 0.0
    degree[2::5] = 1.0
    step = np.repeat(np.arange(steps, dtype=np.int16), [f.shape[0] for f in focals])
    got_step, got_bits, got_sums = K.support_products(
        step, np.concatenate(focals), np.concatenate(masses), focus, degree, n_atoms
    )
    assert np.all(np.diff(got_step) >= 0)
    for k in range(steps):
        mine = got_step == k
        want_bits, want_sums = grouped_products_oracle(
            np.array([focus[k], full]), np.array([degree[k], 1.0 - degree[k]]),
            focals[k], masses[k],
        )
        assert np.array_equal(got_bits[mine], want_bits)
        assert np.array_equal(got_sums[mine], want_sums)


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
