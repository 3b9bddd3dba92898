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
from .errors import EvidentError, FactorOutOfRange, FrameMismatch, TotalConflict
from .masses import MassFunction, vacuous

# combination results drop float dust below this, keeping focal sets tight
# across long fusion chains
PRUNE_EPS = 1e-15

# conflict this close to 1 counts as total
TOTAL_CONFLICT_TOL = 1e-12


@dataclass(frozen=True)
class CombinationReport:
    """A fused mass function plus the conflict measured along the way."""

    result: MassFunction
    conflict: float


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
    :class:`TotalConflict` when the evidence is flatly contradictory.

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
    acc = masses[0]
    retained = 1.0
    for i, m in enumerate(masses[1:], start=1):
        try:
            report = combine(acc, m)
        except TotalConflict:
            raise TotalConflict(index=i) from None
        retained *= 1.0 - report.conflict
        acc = report.result
    return CombinationReport(result=acc, conflict=1.0 - retained)


def discount(m: MassFunction, factor: float) -> MassFunction:
    """Erode evidence toward ignorance, e.g. as it ages.

    Every focal except the whole frame keeps ``factor`` of its mass; the
    remainder moves onto the whole frame. Factor 1 is the identity, factor 0
    the vacuous distribution.
    """
    factor = float(factor)
    if not 0.0 <= factor <= 1.0 or math.isnan(factor):
        raise FactorOutOfRange(f"discount factor {factor!r} outside [0, 1]")
    if factor == 1.0:
        return m
    if factor == 0.0:
        return vacuous(m.frame)
    full = np.uint64(m.frame._full_bits)
    bits = m._bits
    scaled = m._masses * factor
    mass_on_full = m.mass(m.frame.full())
    new_full = 1.0 - factor * (1.0 - mass_on_full)
    if bits.shape[0] and bits[-1] == full:
        bits = bits[:-1]
        scaled = scaled[:-1]
    if new_full > 0.0:
        bits = np.concatenate([bits, np.array([full], np.uint64)])
        scaled = np.concatenate([scaled, np.array([new_full])])
    keep = scaled > 0.0
    return MassFunction._from_arrays(m.frame, bits[keep], scaled[keep])
