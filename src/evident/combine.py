"""Dempster's orthogonal sum: conflict, normalized fusion, and discounting.

Two bodies of evidence combine by multiplying masses over all focal pairs
and pooling each product on the pair's intersection. Mass landing on the
empty set is the conflict; the remainder is scaled back up by the
proportionality constant 1/(1 - conflict). Total conflict (all products
empty) is an error, never a silent NaN.

The sum is exact up to float rounding, so that a fold's result does not
depend on how it is grouped, and one rule holds for it on every path:

- a product is dropped only when it is exactly 0.0, as when it underflows;
- the sum is total conflict when no positive product lands on a non-empty
  set, however close to 1 the conflict is otherwise;
- the reported conflict is clamped at 1, as belief and plausibility are,
  because inputs are accepted when their totals are 1 within
  ``NORMALIZATION_TOL``.

The replays make the same sum for many accumulators at once, each with one
simple support (:func:`_sum_supports`), and get the same bits as
:func:`combine` of each accumulator with its :func:`simple_support`. Both
paths order the operands alike, the one with fewer focals first (ties by
their bytes), add each group's products in that order, and scale the
survivors by their total added in mask order; both read the pair cap from
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._jsonutil import number, of_type
from .errors import (
    CombinationTooLarge, DegreeOutOfRange, EvidentError, FactorOutOfRange, FrameMismatch,
    TotalConflict,
)
from .masses import MassFunction

# combines of more focal pairs are refused: replays stopped by this cap peaked
# at 160 MB (32 atoms) and 151 MB (64 atoms); the benchmark's largest is 350 k
MAX_PAIRS = 1 << 21


@dataclass(frozen=True)
class CombinationReport:
    """A fused mass function plus the conflict measured along the way."""

    result: MassFunction
    conflict: float

    def __post_init__(self):
        of_type(self.result, MassFunction, "combination result")
        conflict = number(self.conflict, "conflict", DegreeOutOfRange, 0.0, 1.0)
        object.__setattr__(self, "conflict", conflict)


def _leads(a, b) -> bool:
    """Whether focal set ``a`` is summed before ``b``, each a (bits, masses) pair.

    The canonical operand order: both call orders then run the identical
    accumulation path, making the sum commutative bit-for-bit. The operand
    with fewer focals leads, so a simple support leads a larger accumulator,
    as :func:`_sum_supports` lays its products out; equal counts are ordered
    by the operands' bytes.
    """
    if a[0].shape[0] != b[0].shape[0]:
        return a[0].shape[0] < b[0].shape[0]
    return (a[0].tobytes(), a[1].tobytes()) <= (b[0].tobytes(), b[1].tobytes())


def _check_pairs(n1: int, n2: int) -> None:
    """Refuse one orthogonal sum of ``n1`` by ``n2`` focals above ``MAX_PAIRS``."""
    if n1 * n2 > MAX_PAIRS:
        raise CombinationTooLarge(
            f"combining {n1} by {n2} focals makes {n1 * n2} focal pairs,"
            f" above the cap of {MAX_PAIRS}"
        )


def _summed(m1: MassFunction, m2: MassFunction):
    """(conflict, bits, masses): the orthogonal sum of ``m1`` and ``m2`` as arrays.

    The conflict is the product mass on the empty set, clamped at 1; the
    positive products on non-empty sets, pooled by intersection, are scaled
    by their total added in mask order. Both arrays are empty on total
    conflict.
    """
    of_type(m1, MassFunction, "combined evidence")
    of_type(m2, MassFunction, "combined evidence")
    if m1.frame != m2.frame:
        raise FrameMismatch("cannot combine evidence on different frames")
    _check_pairs(len(m1), len(m2))
    a, b = (m1._bits, m1._masses), (m2._bits, m2._masses)
    if not _leads(a, b):
        a, b = b, a
    bits, sums = _kernels.combine_products(*a, *b, len(m1.frame))
    conflict = 0.0
    if bits.shape[0] and int(bits[0]) == 0:
        conflict = min(float(sums[0]), 1.0)
        bits, sums = bits[1:], sums[1:]
    keep = sums > 0.0
    sums = sums[keep]
    return conflict, bits[keep], sums / _kernels.ordered_total(sums)


def conflict_mass(m1: MassFunction, m2: MassFunction) -> float:
    """Mass the pair would assign to the empty set: their degree of conflict."""
    return _summed(m1, m2)[0]


def combine(m1: MassFunction, m2: MassFunction) -> CombinationReport:
    """Orthogonal sum of two mass functions on the same frame.

    Commutative, with the vacuous distribution as identity. Raises
    :class:`TotalConflict` when no positive product lands on a non-empty
    set, and :class:`CombinationTooLarge` above ``MAX_PAIRS`` focal pairs.

    Every positive product is kept: only products that are exactly 0.0 are
    dropped. The operand with fewer focals comes first, ties broken by the
    operands' bytes, and each group adds its products in that order. The
    survivors are scaled by their own total, added in mask order, rather
    than by 1 - conflict, so a result always totals 1 to rounding, however
    near 1 the conflict, and error does not compound along a fold.
    ``conflict`` is the product mass on the empty set as computed from the
    inputs, clamped at 1; when their totals are off 1 by rounding (they are
    accepted within ``NORMALIZATION_TOL``) it is not rescaled, and so is off
    the conflict of exactly normalised inputs by the same order.
    """
    conflict, bits, masses = _summed(m1, m2)
    if not bits.shape[0]:
        raise TotalConflict()
    return CombinationReport(MassFunction._from_arrays(m1.frame, bits, masses), conflict)


# A fold aggregate is a (fused mass function, retained) pair; retained is the
# product of 1 - step conflict over its combines. Total conflict is
# absorbing: its aggregate has no mass function.
_Aggregate = tuple[MassFunction | None, float]
_CONTRADICTED: _Aggregate = (None, 0.0)


def _sum(a: _Aggregate, b: _Aggregate) -> _Aggregate:
    """One fold step: the aggregate of ``a`` then ``b``."""
    if a[0] is None or b[0] is None:
        return _CONTRADICTED
    conflict, bits, masses = _summed(a[0], b[0])
    if not bits.shape[0]:
        return _CONTRADICTED
    return MassFunction._from_arrays(a[0].frame, bits, masses), a[1] * b[1] * (1.0 - conflict)


def _pairs_left(held: int) -> int:
    """The focal pairs that sums may still make beside ``held`` rows kept."""
    return MAX_PAIRS - held


def _sum_supports(step, bits, masses, focus, degree, n_atoms: int):
    """:func:`combine` of many accumulators at once, each with a simple support.

    The accumulators are flat rows, ascending by step and then by mask, as
    :func:`_kernels.support_products` takes and returns them; accumulator k
    is summed with the support of ``degree[k]`` on ``focus[k]``. Each sum is
    ``combine(accumulator, simple_support(frame, focus[k], degree[k]))``, bit
    for bit: the support's masses are those :func:`simple_support` stores,
    the products of each group are added in the order :func:`combine` adds
    them, and the survivors are scaled by their total added in mask order. A
    sum none of whose products survives is total conflict and keeps no rows,
    so no later support can revive it: total conflict is absorbing.

    One accumulator or many, the round is one :func:`_kernels.support_products`
    call: it pools the products in dense (step, mask) bins when those number
    no more than the products, as a round of few chains of many focals does,
    and sorts them otherwise, with the same bits either way.

    Returns (step, bits, masses, conflict per accumulator). One sum above
    ``MAX_PAIRS`` focal pairs raises :class:`CombinationTooLarge`; how many
    sums to make at once is the caller's to bound.
    """
    counts = np.bincount(step, minlength=degree.shape[0])
    full = np.uint64((1 << n_atoms) - 1)
    # a support on the whole frame puts all its mass there: simple_support
    # stores degree + (1 - degree), which rounds to 1.0 for every degree in
    # [0, 1]. One of degree 0 or 1 has one focal
    degree = np.where(focus == full, 1.0, degree)
    focals = np.where((degree == 0.0) | (degree == 1.0), 1, 2)
    worst = int(np.argmax(counts * focals))
    _check_pairs(int(counts[worst]), int(focals[worst]))
    leads = _accumulator_leads(counts, focals, bits, masses, focus, degree, full)
    acc, bits, sums = _kernels.support_products(step, bits, masses, focus, degree, n_atoms, leads)
    empty = bits == 0
    conflict = np.zeros(degree.shape[0])
    conflict[acc[empty]] = np.minimum(sums[empty], 1.0)
    live = ~empty & (sums > 0.0)
    acc, bits, sums = acc[live], bits[live], sums[live]
    scaled = sums / np.bincount(acc, weights=sums, minlength=degree.shape[0])[acc]
    return acc.astype(step.dtype), bits, scaled, conflict


def _accumulator_leads(counts, focals, bits, masses, focus, degree, full):
    """First rows of the two-focal accumulators whose products lead their support's.

    :func:`_leads` puts the operand of fewer focals first, so a support
    leads every accumulator but one of two focals, which leads when its
    (bits, masses) bytes order no later than the support's.
    """
    pair = np.flatnonzero((counts == 2) & (focals == 2))
    if not pair.shape[0]:
        return pair
    first = (np.cumsum(counts) - counts)[pair]
    ours = (bits[first], bits[first + 1], masses[first], masses[first + 1])
    theirs = (focus[pair], np.full(pair.shape[0], full), degree[pair], 1.0 - degree[pair])
    # bytes compare as big-endian numbers do; ours order no later than
    # theirs when, at the first field that differs, if any, ours is less
    led = np.ones(pair.shape[0], dtype=bool)
    for a, b in reversed(list(zip(ours, theirs))):
        a, b = a.view(">u8"), b.view(">u8")
        led = (a < b) | ((a == b) & led)
    return first[led]


def combine_all(masses: Sequence[MassFunction]) -> CombinationReport:
    """Left fold of :func:`combine` over a non-empty list.

    The reported conflict is cumulative over the fold steps,
    1 - prod(1 - step conflict), so one statistic covers the whole chain; it
    equals the pairwise conflict for a single step. :class:`TotalConflict`
    carries the index of the input that made the fold contradictory.
    """
    masses = [
        of_type(m, MassFunction, "combined evidence")
        for m in of_type(masses, Iterable, "combine_all masses")
    ]
    if not masses:
        raise EvidentError("combine_all needs at least one mass function")
    acc = (masses[0], 1.0)
    for i, m in enumerate(masses[1:], start=1):
        acc = _sum(acc, (m, 1.0))
        if acc is _CONTRADICTED:
            raise TotalConflict(index=i)
    return CombinationReport(result=acc[0], conflict=1.0 - acc[1])


def discount(m: MassFunction, factor: float) -> MassFunction:
    """Erode evidence toward ignorance, e.g. as it ages.

    Every focal except the whole frame keeps ``factor`` of its mass; the
    remainder moves onto the whole frame. Factor 1 is the identity, factor 0
    the vacuous distribution.
    """
    of_type(m, MassFunction, "discounted evidence")
    factor = number(factor, "discount factor", FactorOutOfRange, 0.0, 1.0)
    if factor == 1.0:
        return m
    full = np.uint64(m.frame._full_bits)
    bits = m._bits
    scaled = m._masses * factor
    mass_on_full = 0.0
    if bits[-1] == full:  # the whole frame sorts last
        mass_on_full = float(m._masses[-1])
        bits = bits[:-1]
        scaled = scaled[:-1]
    new_full = 1.0 - factor * (1.0 - mass_on_full)
    if new_full > 0.0:
        bits = np.concatenate([bits, np.array([full], np.uint64)])
        scaled = np.concatenate([scaled, np.array([new_full])])
    keep = scaled > 0.0
    return MassFunction._from_arrays(m.frame, bits[keep], scaled[keep])
