"""Committed belief per hypothesis and the decision-or-conflict rule.

Evidence commits belief for a statement (pro), against it (con), and leaves
the rest uncommitted. Over a fused body of evidence the engine ranks the
atomic hypotheses by committed belief and declares a decision only under
interval dominance: the winner's lower bound must clear every rival's upper
bound, so no resolution of the residual ignorance could overturn it. Anything
short of that is a leaning; ties and excessive conflict are reported as
such, never silently broken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._jsonutil import number, of_type
from .combine import CombinationReport
from .errors import DegreeOutOfRange, FrameMismatch, TrivialProposition, WrongType
from .frames import EvidentialInterval, Proposition
from .masses import MassFunction, _intervals, _singleton_bounds

# singleton beliefs this close count as tied
TIE_TOL = 1e-12


@dataclass(frozen=True)
class SupportTriple:
    """Belief for, belief against, and what the evidence leaves open."""

    pro: float
    con: float
    uncommitted: float

    def __post_init__(self):
        for name in ("pro", "con", "uncommitted"):
            value = getattr(self, name)
            object.__setattr__(self, name, number(value, name, DegreeOutOfRange, 0.0, 1.0))


class DecisionStatus(enum.Enum):
    DECIDED = "decided"
    LEANING = "leaning"
    CONFLICTED = "conflicted"


#: reasons attached to a CONFLICTED status
TIE = "tie"
HIGH_CONFLICT = "high_conflict"


@dataclass(frozen=True)
class Decision:
    """Outcome of weighing fused evidence over the atomic hypotheses.

    ``ranking`` lists every atom once with its evidential interval, best
    supported first. ``hypothesis`` is the winner for DECIDED/LEANING and
    None otherwise; ``reason`` is "tie" or "high_conflict" for CONFLICTED.
    """

    status: DecisionStatus
    hypothesis: str | None
    reason: str | None
    ranking: tuple[tuple[str, EvidentialInterval], ...]
    cumulative_conflict: float

    def __post_init__(self):
        _check_outcome(self, self.ranking, "decision")


def _check_outcome(record, pairs, name: str) -> None:
    """Check the fields a :class:`Decision` and a trace row share.

    ``record`` holds a ``cumulative_conflict`` in [0, 1] (else
    :class:`DegreeOutOfRange`), stored back as a float, a
    :class:`DecisionStatus` ``status``, and text or None for its ``reason``
    and ``hypothesis``; ``pairs``, its atoms' intervals, is a tuple of one or
    more (atom name, :class:`EvidentialInterval`) pairs (else
    :class:`WrongType`).
    """
    conflict = number(record.cumulative_conflict, f"{name} conflict", DegreeOutOfRange, 0.0, 1.0)
    of_type(record.status, DecisionStatus, f"{name} status")
    if {type(record.reason), type(record.hypothesis)} - {str, type(None)}:
        raise WrongType(f"{name} reason and hypothesis must be text or None")
    of_type(pairs, tuple, f"{name} intervals")
    try:
        atoms, intervals = zip(*pairs)
    except (TypeError, ValueError):  # not pairs, or none
        atoms, intervals = (), ()
    if set(map(type, atoms)) != {str} or set(map(type, intervals)) != {EvidentialInterval}:
        raise WrongType(f"{name} intervals must be one or more (atom, interval) pairs")
    object.__setattr__(record, "cumulative_conflict", conflict)


def support_pro_con(m: MassFunction, prop: Proposition) -> SupportTriple:
    """Split the unit of belief into pro / con / uncommitted for ``prop``.

    Pro is the belief in the statement, con the belief in its negation, and
    the rest is suspended mass that could still shift either way.
    """
    of_type(m, MassFunction, "evidence")
    if of_type(prop, Proposition, "proposition").frame != m.frame:
        raise FrameMismatch("proposition belongs to a different frame")
    if prop.is_empty or prop.is_full:
        raise TrivialProposition(
            "pro/con support is undefined for the empty or whole-frame statement"
        )
    pro = m.belief(prop)
    con = m.belief(prop.complement())
    uncommitted = max(0.0, 1.0 - pro - con)
    return SupportTriple(pro=pro, con=con, uncommitted=uncommitted)


def decide(report: CombinationReport, conflict_threshold: float = 0.95) -> Decision:
    """Determine a decision or a conflict among the atomic hypotheses.

    Conflict at or above the threshold short-circuits to
    CONFLICTED(high_conflict). Otherwise the best-believed atom wins:
    DECIDED if its belief exceeds every rival's plausibility (interval
    dominance), LEANING if not, CONFLICTED(tie) when a rival's belief comes
    within ``TIE_TOL`` of the top one. The winner and the ranking's order
    among equal beliefs follow frame order.

    This is :func:`_decide_block` at one step, the rule and the sums the
    replay applies to a block of steps at once.
    """
    conflict_threshold = number(
        conflict_threshold, "conflict threshold", DegreeOutOfRange, 0.0, 1.0, lo_open=True
    )
    of_type(report, CombinationReport, "decided report")
    bel, (intervals,), ((status, reason, hypothesis),) = _decide_block(
        [report.result], [report.conflict], conflict_threshold
    )
    atoms = report.result.frame.atoms
    ranking = tuple(
        (atoms[i], intervals[i]) for i in np.argsort(-bel[0], kind="stable").tolist()
    )
    return Decision(status, hypothesis, reason, ranking, report.conflict)


def _decide_block(fused: list[MassFunction], conflicts: list[float], threshold: float):
    """Every atom's interval and the decision rule at each step of a block.

    Step k is the fused mass function ``fused[k]`` with the cumulative
    conflict ``conflicts[k]``, a degree; the steps share one frame. Every
    atom's belief and plausibility at every step comes from one
    :func:`masses._singleton_bounds` call, and the rule is applied to all of
    them at once. Returns (bel, intervals, verdicts): the (steps, atoms)
    belief array, each step's intervals in frame order, and each step's
    (status, reason, hypothesis).
    """
    frame = fused[0].frame
    step = np.repeat(np.arange(len(fused)), [len(m) for m in fused])
    bits = np.concatenate([m._bits for m in fused])
    masses = np.concatenate([m._masses for m in fused])
    bel, pl = _singleton_bounds(frame, step, bits, masses, len(fused))
    # argmax takes the first of equal beliefs, the atom a stable ranking puts first
    best = bel.argmax(axis=1)
    top = bel[np.arange(len(fused)), best]
    rivals = np.arange(len(frame)) != best[:, None]
    runner_up = bel.max(axis=1, where=rivals, initial=-np.inf)
    widest_rival = pl.max(axis=1, where=rivals, initial=-np.inf)
    high = np.array(conflicts) >= threshold
    tie = runner_up >= top - TIE_TOL
    dominant = top > widest_rival
    verdicts = []
    for is_high, is_tie, is_dominant, winner in zip(
        high.tolist(), tie.tolist(), dominant.tolist(), best.tolist()
    ):
        if is_high or is_tie:
            verdicts.append((DecisionStatus.CONFLICTED, HIGH_CONFLICT if is_high else TIE, None))
        else:
            status = DecisionStatus.DECIDED if is_dominant else DecisionStatus.LEANING
            verdicts.append((status, None, frame.atoms[winner]))
    return bel, _intervals(bel, pl), verdicts
