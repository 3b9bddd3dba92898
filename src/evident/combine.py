"""Dempster's orthogonal sum: conflict, normalized fusion, and discounting.

Two bodies of evidence combine by multiplying masses over all focal pairs
and pooling each product on the pair's intersection. Mass landing on the
empty set is the conflict; the remainder is scaled back up by the
proportionality constant 1/(1 - conflict). Total conflict (all products
empty) is an error, never a silent NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._jsonutil import number
from .errors import (
    CombinationTooLarge, DegreeOutOfRange, EvidentError, FactorOutOfRange, FrameMismatch,
    TotalConflict,
)
from .masses import MassFunction

# combination results drop float dust below this, keeping focal sets tight
# across long fusion chains
PRUNE_EPS = 1e-15

# conflict this close to 1 counts as total
TOTAL_CONFLICT_TOL = 1e-12

# combines of more focal pairs are refused: replays stopped by this cap peaked
# at 160 MB (32 atoms) and 151 MB (64 atoms); the benchmark's largest is 350 k
MAX_PAIRS = 1 << 21


@dataclass(frozen=True)
class CombinationReport:
    """A fused mass function plus the conflict measured along the way."""

    result: MassFunction
    conflict: float

    def __post_init__(self):
        conflict = number(self.conflict, "conflict", DegreeOutOfRange, 0.0, 1.0)
        object.__setattr__(self, "conflict", conflict)


def _ordered(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, MassFunction]:
    # canonical operand order: both call orders then run the identical
    # accumulation path, making the sum commutative bit-for-bit
    k1 = (m1._bits.tobytes(), m1._masses.tobytes())
    k2 = (m2._bits.tobytes(), m2._masses.tobytes())
    return (m1, m2) if k1 <= k2 else (m2, m1)


def _grouped(m1: MassFunction, m2: MassFunction):
    """(conflict, group bits, group sums): the pair's products pooled by
    intersection, with the empty intersection's share split off as conflict."""
    if m1.frame != m2.frame:
        raise FrameMismatch("cannot combine evidence on different frames")
    pairs = m1._bits.shape[0] * m2._bits.shape[0]
    if pairs > MAX_PAIRS:
        raise CombinationTooLarge(
            f"combining {len(m1)} by {len(m2)} focals makes {pairs} focal pairs,"
            f" above the cap of {MAX_PAIRS}"
        )
    a, b = _ordered(m1, m2)
    group_bits, group_sums = _kernels.combine_products(
        a._bits, a._masses, b._bits, b._masses, len(m1.frame)
    )
    if group_bits.shape[0] and int(group_bits[0]) == 0:
        return float(group_sums[0]), group_bits[1:], group_sums[1:]
    return 0.0, group_bits, group_sums


def conflict_mass(m1: MassFunction, m2: MassFunction) -> float:
    """Mass the pair would assign to the empty set: their degree of conflict."""
    return _grouped(m1, m2)[0]


def combine(m1: MassFunction, m2: MassFunction) -> CombinationReport:
    """Orthogonal sum of two mass functions on the same frame.

    Commutative, with the vacuous distribution as identity. Raises
    :class:`TotalConflict` when the evidence is flatly contradictory and
    :class:`CombinationTooLarge` above ``MAX_PAIRS`` focal pairs.

    The surviving products are scaled by their own exact total rather than by
    1 - conflict, so a result always totals 1 to rounding and error does not
    compound along a fold. ``conflict`` is the product mass on the empty set
    as computed from the inputs; when their totals are off 1 by rounding
    (they are accepted within ``NORMALIZATION_TOL``) it is not rescaled, and
    so is off the conflict of exactly normalised inputs by the same order.
    """
    conflict, group_bits, group_sums = _grouped(m1, m2)
    if conflict >= 1.0 - TOTAL_CONFLICT_TOL or not group_bits.shape[0]:
        raise TotalConflict()
    scaled = group_sums / math.fsum(group_sums.tolist())
    keep = scaled >= PRUNE_EPS
    result = MassFunction._from_arrays(
        m1.frame, group_bits[keep], scaled[keep]
    )
    return CombinationReport(result=result, conflict=conflict)


# A fold aggregate is a (fused mass function, retained) pair; retained is the
# product of 1 - step conflict over its combines. Total conflict is
# absorbing: its aggregate has no mass function.
_Aggregate = tuple[MassFunction | None, float]
_CONTRADICTED: _Aggregate = (None, 0.0)


def _sum(a: _Aggregate, b: _Aggregate) -> _Aggregate:
    """One fold step: the aggregate of ``a`` then ``b``."""
    if a[0] is None or b[0] is None:
        return _CONTRADICTED
    try:
        report = combine(a[0], b[0])
    except TotalConflict:
        return _CONTRADICTED
    return report.result, a[1] * b[1] * (1.0 - report.conflict)


def combine_all(masses: Sequence[MassFunction]) -> CombinationReport:
    """Left fold of :func:`combine` over a non-empty list.

    The reported conflict is cumulative over the fold steps,
    1 - prod(1 - step conflict), so one statistic covers the whole chain; it
    equals the pairwise conflict for a single step. :class:`TotalConflict`
    carries the index of the input that made the fold contradictory.
    """
    masses = list(masses)
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
