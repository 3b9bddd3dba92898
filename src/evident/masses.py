"""Mass distributions, simple support functions, and evidential intervals.

A :class:`MassFunction` spreads one unit of belief over non-empty
propositions of a single frame (the focal elements, which need not be
disjoint). Belief in a proposition is the total mass of focals it contains;
plausibility is the total mass of focals it intersects, equivalently one
minus the belief of its complement. The pair forms the evidential interval,
whose width is the residual ignorance: complete ignorance is the unit
interval, a precise probability assignment collapses every interval to a
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _kernels
from ._jsonutil import number, of_type
from .errors import (
    DegreeOutOfRange,
    EmptyFocus,
    FrameMismatch,
    InvalidInterval,
    MassOnEmptySet,
    MissingAtom,
    NegativeMass,
    NotNormalized,
    WrongType,
)
from .frames import Frame, Proposition

# construction-time tolerance for the unit-total check; stored masses are
# never silently renormalized
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class EvidentialInterval:
    """[support, plausibility] bounds on the likelihood of a proposition."""

    support: float
    plausibility: float

    def __post_init__(self):
        support = number(self.support, "interval support", InvalidInterval, 0.0, 1.0)
        number(self.plausibility, "interval plausibility", InvalidInterval, support, 1.0)

    @property
    def ignorance(self) -> float:
        """Interval width: how much the evidence leaves undetermined."""
        return self.plausibility - self.support

    def __iter__(self):
        return iter((self.support, self.plausibility))

    def __repr__(self) -> str:
        return f"[{self.support}, {self.plausibility}]"


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
        masses = [merged[b] for b in bits]
        total = math.fsum(masses)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(total)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_bits", np.array(bits, dtype=np.uint64))
        object.__setattr__(self, "_masses", np.array(masses, dtype=np.float64))

    def __setattr__(self, name, value):
        raise AttributeError("MassFunction is immutable")

    @classmethod
    def _from_arrays(cls, frame: Frame, bits: np.ndarray, masses: np.ndarray) -> MassFunction:
        """Trusted fast path: ``bits`` sorted ascending, non-empty, masses > 0."""
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NotNormalized(total)
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
        step = np.zeros(len(self), dtype=np.intp)
        bounds = _singleton_bounds(self.frame, step, self._bits, self._masses, 1)
        return _intervals(*bounds)[0]

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


def _singleton_bounds(
    frame: Frame, step: np.ndarray, bits: np.ndarray, masses: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every atom's belief and plausibility at each step, from flat focal rows.

    Row i is focal ``bits[i]`` of step ``step[i]`` with mass ``masses[i]``, a
    step's rows in its mass function's focal order. Returns (bel, pl) arrays
    of shape (n_steps, atoms), clamped at 1 as :meth:`MassFunction.belief`
    and :meth:`MassFunction.plausibility` clamp.
    """
    bel, pl = _kernels.atom_sums(step, bits, masses, n_steps, len(frame))
    return np.minimum(bel, 1.0), np.minimum(pl, 1.0)


def _intervals(bel: np.ndarray, pl: np.ndarray) -> list[list[EvidentialInterval]]:
    """The validated interval of each cell of (steps, atoms) bounds, per step."""
    return [
        [EvidentialInterval(b, p) for b, p in zip(bs, ps)]
        for bs, ps in zip(bel.tolist(), pl.tolist())
    ]


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
