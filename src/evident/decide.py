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

from ._jsonutil import number, of_type
from .combine import CombinationReport
from .errors import DegreeOutOfRange, FrameMismatch, TrivialProposition
from .masses import EvidentialInterval, MassFunction
from .frames import Proposition

# singleton beliefs this close count as tied
TIE_TOL = 1e-12


@dataclass(frozen=True)
class SupportTriple:
    """Belief for, belief against, and what the evidence leaves open."""

    pro: float
    con: float
    uncommitted: float


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
    DECIDED if its interval strictly dominates every rival's, LEANING if
    not, CONFLICTED(tie) when the top belief is shared (within ``TIE_TOL``).
    """
    conflict_threshold = number(
        conflict_threshold, "conflict threshold", DegreeOutOfRange, 0.0, 1.0, lo_open=True
    )
    m = of_type(report, CombinationReport, "decided report").result
    intervals = zip(m.frame.atoms, m.singleton_intervals())
    ranking = tuple(sorted(intervals, key=lambda pair: -pair[1].support))
    (best_atom, best), rivals = ranking[0], ranking[1:]
    status, hypothesis, reason = DecisionStatus.CONFLICTED, None, None
    if report.conflict >= conflict_threshold:
        reason = HIGH_CONFLICT
    elif any(iv.support >= best.support - TIE_TOL for _, iv in rivals):
        reason = TIE
    else:
        dominant = all(best.support > iv.plausibility for _, iv in rivals)
        status = DecisionStatus.DECIDED if dominant else DecisionStatus.LEANING
        hypothesis = best_atom
    return Decision(status, hypothesis, reason, ranking, report.conflict)
