"""Mass distributions, simple support functions, and evidential intervals.

A :class:`MassFunction` spreads one unit of belief over non-empty
propositions of a single frame (the focal elements, which need not be
disjoint). Belief in a proposition is the total mass of focals it contains;
plausibility is the total mass of focals it intersects, equivalently one
minus the belief of its complement. The pair forms the evidential interval,
whose width is the residual ignorance: complete ignorance is the unit
interval, a precise probability assignment collapses every interval to a
point. :class:`EvidentialInterval` is defined in :mod:`evident.frames` and
re-exported here.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _kernels
from ._jsonutil import number, of_type
from .errors import (
    DegreeOutOfRange,
    EmptyFocus,
    FrameMismatch,
    MassOnEmptySet,
    MissingAtom,
    NegativeMass,
    NotNormalized,
    WrongType,
)
from .frames import EvidentialInterval, Frame, Proposition

# construction-time tolerance for the unit-total check; stored masses are
# never silently renormalized. The check adds the masses with NumPy's sum
# under an error bound, and re-adds them exactly with math.fsum only when the
# bound cannot decide (_check_total)
NORMALIZATION_TOL = 1e-9


def _check_total(masses: np.ndarray) -> None:
    """Raise :class:`NotNormalized` unless the exact total of ``masses`` is within tolerance.

    ``masses`` are non-negative. Added in any order, n of them round to a
    total t within (n - 1)u/(1 - (n - 1)u) of their exact sum s (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, 4.2),
    u = 2**-53; fsum returns s rounded once more. The slack of n * 2.3e-16 * t,
    about 2nu * t, covers both, so a total that passes here passes fsum too.
    Anything else, NaN and inf included, is decided by fsum's total, which is
    the one an error carries; a NaN total is refused.
    """
    total = float(masses.sum())
    if abs(total - 1.0) <= NORMALIZATION_TOL - masses.shape[0] * 2.3e-16 * total:
        return
    try:
        total = math.fsum(masses.tolist())
    except OverflowError:  # finite masses whose exact total is past the float range
        total = math.inf
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise NotNormalized(total)


class MassFunction:
    """A normalized mass distribution over non-empty propositions.

    Entries with zero mass are dropped and duplicate propositions summed, so
    the focal set is exactly the support of the distribution. The total must
    come to one within ``NORMALIZATION_TOL``; nothing is renormalized on the
    caller's behalf. Immutable once built.
    """

    __slots__ = ("frame", "_bits", "_masses")

    def __init__(self, frame: Frame, entries: Iterable[tuple[Proposition, float]]):
        merged: dict[int, float] = {}
        for entry in of_type(entries, Iterable, "mass entries"):
            try:
                prop, mass = entry
            except (TypeError, ValueError):
                raise WrongType("mass entry must be a (proposition, mass) pair") from None
            if of_type(prop, Proposition, "focal proposition").frame != frame:
                raise FrameMismatch("focal proposition belongs to a different frame")
            mass = number(mass, "mass", NegativeMass, 0.0)
            if prop.is_empty:
                if mass > 0.0:
                    raise MassOnEmptySet("positive mass on the empty proposition")
                continue
            merged[prop.bits] = merged.get(prop.bits, 0.0) + mass
        bits = sorted(b for b, m in merged.items() if m > 0.0)
        masses = np.array([merged[b] for b in bits], dtype=np.float64)
        # finite masses from outside can add past the float range: NumPy's sum
        # then reads inf without a warning, and fsum decides
        with np.errstate(over="ignore"):
            _check_total(masses)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_bits", np.array(bits, dtype=np.uint64))
        object.__setattr__(self, "_masses", masses)

    def __setattr__(self, name, value):
        raise AttributeError("MassFunction is immutable")

    @classmethod
    def _from_arrays(cls, frame: Frame, bits: np.ndarray, masses: np.ndarray) -> MassFunction:
        """Trusted fast path: ``bits`` sorted ascending, non-empty, masses > 0.

        The total is checked as in the constructor: NumPy's sum under an error
        bound, and ``math.fsum``'s exact total only where the bound cannot
        decide, so a refusal carries fsum's total.
        """
        _check_total(masses)
        self = object.__new__(cls)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_masses", masses)
        return self

    # -- focal access ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self._bits.shape[0])

    def focals(self) -> Iterator[tuple[Proposition, float]]:
        """(proposition, mass) pairs, ascending bitmask order."""
        for b, m in zip(self._bits.tolist(), self._masses.tolist()):
            yield Proposition(self.frame, b), m

    def mass(self, prop: Proposition) -> float:
        """Mass on exactly ``prop`` (zero when it is not a focal)."""
        self._check_frame(prop)
        bits = np.uint64(prop.bits)
        at = min(int(np.searchsorted(self._bits, bits)), len(self) - 1)
        return float(self._masses[at]) if self._bits[at] == bits else 0.0

    # -- belief measures --------------------------------------------------------

    # Belief and plausibility are clamped at 1: an accepted total of
    # 1 + O(NORMALIZATION_TOL) must not leak past the bounds.

    def belief(self, prop: Proposition) -> float:
        """Total mass committed to ``prop``: sum over focals it contains."""
        self._check_frame(prop)
        return min(
            1.0, _kernels.belief_sum(self._bits, self._masses, np.uint64(prop.bits))
        )

    def plausibility(self, prop: Proposition) -> float:
        """Degree to which the evidence fails to refute ``prop``."""
        self._check_frame(prop)
        return min(
            1.0, _kernels.plausibility_sum(self._bits, self._masses, np.uint64(prop.bits))
        )

    def interval(self, prop: Proposition) -> EvidentialInterval:
        """The evidential interval [belief, plausibility] of ``prop``."""
        return EvidentialInterval(self.belief(prop), self.plausibility(prop))

    def singleton_intervals(self) -> list[EvidentialInterval]:
        """The interval of every atom in frame order.

        One :func:`_singleton_bounds` step: a singleton's only non-empty
        subset is itself, so its belief is the mass on exactly that atom.
        Each interval equals ``interval(frame.singleton(atom))``, bit for bit.
        """
        return _intervals(*_singleton_bounds(self.frame, [self]))[0]

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MassFunction)
            and self.frame == other.frame
            and np.array_equal(self._bits, other._bits)
            and np.array_equal(self._masses, other._masses)
        )

    def __hash__(self):
        return hash((self.frame, self._bits.tobytes(), self._masses.tobytes()))

    def allclose(self, other: MassFunction, atol: float = 1e-12) -> bool:
        """Same focal set with masses equal within ``atol``."""
        return (
            self.frame == other.frame
            and np.array_equal(self._bits, other._bits)
            and bool(np.allclose(self._masses, other._masses, rtol=0.0, atol=atol))
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {m:g}" for p, m in self.focals())
        return f"MassFunction({inner})"

    def _check_frame(self, prop: Proposition) -> None:
        if of_type(prop, Proposition, "proposition").frame != self.frame:
            raise FrameMismatch("proposition belongs to a different frame")


def _singleton_bounds(frame: Frame, masses: list) -> tuple[np.ndarray, np.ndarray]:
    """Every atom's belief and plausibility under each of ``masses``.

    ``masses`` are mass functions on ``frame``, one a step. Their focals are
    laid out as flat (step, mask, mass) rows, a step's rows in its focal
    order, for one :func:`_kernels.atom_sums` call, and the rows are freed on
    return. Returns (bel, pl) arrays of shape (steps, atoms), clamped at 1 as
    :meth:`MassFunction.belief` and :meth:`MassFunction.plausibility` clamp.
    """
    step = np.repeat(np.arange(len(masses)), [mass._bits.shape[0] for mass in masses])
    bits = np.concatenate([mass._bits for mass in masses])
    weights = np.concatenate([mass._masses for mass in masses])
    bel, pl = _kernels.atom_sums(step, bits, weights, len(masses), len(frame))
    return np.minimum(bel, 1.0), np.minimum(pl, 1.0)


def _intervals(bel: np.ndarray, pl: np.ndarray) -> list[list[EvidentialInterval]]:
    """The interval of each cell of (steps, atoms) bounds, per step.

    The block is checked once, as arrays: every cell must have
    0 <= bel <= pl <= 1, which no NaN or infinity meets. A block that passes
    is built without the per-cell check of an :class:`EvidentialInterval` a
    caller builds; any other is built cell by cell, so that its first bad
    cell raises that check's :class:`InvalidInterval`.
    """
    rows = zip(bel.tolist(), pl.tolist())
    if not ((0.0 <= bel) & (bel <= pl) & (pl <= 1.0)).all():
        return [[EvidentialInterval(b, p) for b, p in zip(bs, ps)] for bs, ps in rows]
    new, put = object.__new__, object.__setattr__
    out = []
    for bs, ps in rows:
        cells = []
        for b, p in zip(bs, ps):
            cell = new(EvidentialInterval)
            put(cell, "support", b)
            put(cell, "plausibility", p)
            cells.append(cell)
        out.append(cells)
    return out


def mass_new(frame: Frame, entries: Iterable[tuple[Proposition, float]]) -> MassFunction:
    """Build a mass function from (proposition, mass) entries."""
    return MassFunction(frame, entries)


def simple_support(frame: Frame, focus: Proposition, degree: float) -> MassFunction:
    """Evidence supporting one non-empty focus to the given degree.

    Mass ``degree`` goes to the focus and the remainder to the whole frame;
    degree 0 yields the vacuous distribution, degree 1 commits everything.
    """
    if of_type(focus, Proposition, "support focus").frame != frame:
        raise FrameMismatch("focus belongs to a different frame")
    if focus.is_empty:
        raise EmptyFocus("a simple support function needs a non-empty focus")
    degree = number(degree, "support degree", DegreeOutOfRange, 0.0, 1.0)
    return MassFunction(frame, [(focus, degree), (frame.full(), 1.0 - degree)])


def vacuous(frame: Frame) -> MassFunction:
    """Complete ignorance: all mass on the whole frame, unit intervals."""
    return MassFunction(frame, [(frame.full(), 1.0)])


def bayesian_from_probabilities(frame: Frame, probs: Mapping[str, float]) -> MassFunction:
    """A probability assignment as a mass function on singletons.

    Every atom must be covered; the result collapses each evidential
    interval to the point probability.
    """
    for name in probs:
        frame.bit(name)  # raises UnknownAtom for strangers
    missing = [a for a in frame.atoms if a not in probs]
    if missing:
        raise MissingAtom(f"no probability for atoms: {', '.join(missing)}")
    return MassFunction(frame, [(frame.singleton(a), probs[a]) for a in frame.atoms])
