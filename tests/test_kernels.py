"""The NumPy kernels on full-width (64-atom) bitmasks."""

from __future__ import annotations

import numpy as np

from evident import _kernels as K


def test_sixty_four_atom_masks_supported():
    bits = np.array([1, 1 << 63, (1 << 64) - 1], np.uint64)
    weights = np.array([0.25, 0.25, 0.5])
    target = np.uint64((1 << 64) - 1)
    assert K.belief_sum(bits, weights, target) == 1.0
    assert K.plausibility_sum(bits, weights, np.uint64(1 << 63)) == 0.75


def test_singleton_sums_match_the_masked_sums():
    bits = np.array([1, 3, 1 << 63, (1 << 64) - 1], np.uint64)
    weights = np.array([0.125, 0.25, 0.125, 0.5])
    bel, pl = K.singleton_sums(bits, weights, 64)
    for i in range(64):
        target = np.uint64(1 << i)
        assert bel[i] == K.belief_sum(bits, weights, target)
        assert pl[i] == K.plausibility_sum(bits, weights, target)
    assert (bel[0], pl[0], bel[63], pl[63], pl[5]) == (0.125, 0.875, 0.125, 0.625, 0.5)
