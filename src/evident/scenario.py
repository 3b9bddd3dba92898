"""Replay of time-stamped sensor evidence with windowed fusion.

Each sensor report is one uncertain rule firing: a focus proposition backed
to some degree. A run walks a fixed time grid; at every step it gathers the
reports inside the sliding window, converts them to simple support functions
discounted by age, fuses them, applies the decision rule, and emits one
trace row. Combination has no inverse, so windowed semantics recompute from
the in-window reports at each step rather than updating incrementally.

Runs are batch replays: fold order is pinned (time, then sensor id) and
there is no hidden randomness, so a rerun is byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._jsonutil import parse_document, require
from .combine import CombinationReport, combine_all, discount
from .decide import HIGH_CONFLICT, DecisionStatus, decide
from .errors import (
    DegreeOutOfRange,
    EmptyFocus,
    EmptyTrace,
    FactorOutOfRange,
    FrameMismatch,
    InvalidReport,
    InvalidWindow,
    TotalConflict,
    UnsortedReports,
)
from .frames import Frame, Proposition
from .masses import EvidentialInterval, simple_support, vacuous

# slack when walking the step grid, so t0 + k*step lands on the last report
_GRID_EPS = 1e-9


@dataclass(frozen=True)
class SensorReport:
    """One uncertain observation: a focus backed to ``degree`` at ``time``."""

    sensor_id: str
    time: float
    focus: Proposition
    degree: float

    def __post_init__(self):
        if not isinstance(self.sensor_id, str) or not self.sensor_id:
            raise InvalidReport("sensor id must be a non-empty string")
        if not 0.0 <= self.time < math.inf:
            raise InvalidReport(f"report time {self.time!r} must be finite and >= 0")
        if self.focus.is_empty:
            raise EmptyFocus("report focus must be non-empty")
        if not 0.0 <= self.degree <= 1.0:
            raise DegreeOutOfRange(f"report degree {self.degree!r} outside [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """A frame, a time-sorted report stream, and the replay parameters.

    ``window`` is the near-field horizon in seconds; far-field analysis is
    the same scenario run with a larger window. ``discount_rate`` erodes a
    report per second of age (1 = no erosion).
    """

    frame: Frame
    reports: tuple[SensorReport, ...]
    window: float = 10.0
    step: float = 1.0
    discount_rate: float = 1.0
    conflict_threshold: float = 0.95

    def __post_init__(self):
        if not self.window > 0.0:
            raise InvalidWindow(f"window {self.window!r} must be positive")
        if not self.step > 0.0:
            raise InvalidWindow(f"step {self.step!r} must be positive")
        if not 0.0 <= self.discount_rate <= 1.0:
            raise FactorOutOfRange(
                f"discount rate {self.discount_rate!r} outside [0, 1]"
            )
        if not 0.0 < self.conflict_threshold <= 1.0:
            raise DegreeOutOfRange(
                f"conflict threshold {self.conflict_threshold!r} outside (0, 1]"
            )
        reports = tuple(self.reports)
        for r in reports:
            if r.focus.frame != self.frame:
                raise FrameMismatch("report focus is not on the scenario frame")
        for earlier, later in zip(reports, reports[1:]):
            if later.time < earlier.time:
                raise UnsortedReports(
                    f"report at t={later.time} follows one at t={earlier.time}"
                )
        # pin the fold order: ties on time break by sensor id
        ordered = tuple(sorted(reports, key=lambda r: (r.time, r.sensor_id)))
        object.__setattr__(self, "reports", ordered)


@dataclass(frozen=True)
class TraceRow:
    """Fusion state at one step: intervals per atom plus the decision."""

    time: float
    intervals: tuple[tuple[str, EvidentialInterval], ...]
    cumulative_conflict: float
    status: DecisionStatus
    reason: str | None
    hypothesis: str | None


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document (JSON, UTF-8)."""
    doc = parse_document(text)
    require(isinstance(doc, dict), "scenario must be a JSON object")
    require(isinstance(doc.get("frame"), list), "scenario needs a 'frame' list")
    frame = Frame(doc["frame"])
    params = {}
    for key, default in (
        ("window", 10.0),
        ("step", 1.0),
        ("discount_rate", 1.0),
        ("conflict_threshold", 0.95),
    ):
        value = doc.get(key, default)
        require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"scenario {key!r} must be a number",
        )
        params[key] = float(value)
    raw_reports = doc.get("reports", [])
    require(isinstance(raw_reports, list), "'reports' must be a list")
    reports = []
    for obj in raw_reports:
        require(isinstance(obj, dict), "each report must be a JSON object")
        require(isinstance(obj.get("sensor"), str), "report needs a string 'sensor'")
        for key in ("t", "degree"):
            require(
                isinstance(obj.get(key), (int, float)) and not isinstance(obj.get(key), bool),
                f"report {key!r} must be a number",
            )
        require(isinstance(obj.get("focus"), list), "report needs a 'focus' list")
        reports.append(
            SensorReport(
                sensor_id=obj["sensor"],
                time=float(obj["t"]),
                focus=frame.proposition(obj["focus"]),
                degree=float(obj["degree"]),
            )
        )
    return Scenario(frame=frame, reports=tuple(reports), **params)


def _fuse_window(scenario: Scenario, t: float) -> CombinationReport:
    in_window = [
        r for r in scenario.reports if t - scenario.window < r.time <= t
    ]
    if not in_window:
        return CombinationReport(result=vacuous(scenario.frame), conflict=0.0)
    masses = [
        discount(
            simple_support(scenario.frame, r.focus, r.degree),
            scenario.discount_rate ** (t - r.time),
        )
        for r in in_window
    ]
    return combine_all(masses)


def run_scenario(scenario: Scenario) -> list[TraceRow]:
    """Replay a scenario, emitting one row per step on the time grid.

    The grid starts at the first report time and advances by ``step`` up to
    the last report time. Total conflict at a step is recorded on the row
    (vacuous intervals, conflict 1) and the run continues.
    """
    if not scenario.reports:
        return []
    atoms = scenario.frame.atoms
    # total conflict needs two disjoint focals, so the frame has two or more
    # atoms and every singleton is vacuously [0, 1]
    conflicted = tuple((a, EvidentialInterval(0.0, 1.0)) for a in atoms)
    t0 = scenario.reports[0].time
    t_end = scenario.reports[-1].time
    rows: list[TraceRow] = []
    k = 0
    t = t0
    while t <= t_end + _GRID_EPS:
        try:
            report = _fuse_window(scenario, t)
        except TotalConflict:
            rows.append(
                TraceRow(
                    time=t,
                    intervals=conflicted,
                    cumulative_conflict=1.0,
                    status=DecisionStatus.CONFLICTED,
                    reason=HIGH_CONFLICT,
                    hypothesis=None,
                )
            )
        else:
            decision = decide(report, scenario.conflict_threshold)
            ranked = dict(decision.ranking)
            rows.append(
                TraceRow(
                    time=t,
                    intervals=tuple((a, ranked[a]) for a in atoms),
                    cumulative_conflict=report.conflict,
                    status=decision.status,
                    reason=decision.reason,
                    hypothesis=decision.hypothesis,
                )
            )
        k += 1
        t = t0 + k * scenario.step
    return rows


def _status_label(row: TraceRow) -> str:
    if row.status is DecisionStatus.CONFLICTED:
        return f"conflicted({row.reason})"
    return row.status.value


def emit_trace(rows: list[TraceRow], fmt: str = "csv") -> str:
    """Render trace rows as CSV or a plain table with identical numbers.

    Reals carry six fractional digits (round-half-even). CSV columns: time,
    then <atom>_bel,<atom>_pl per atom in frame order, then conflict,
    status, hypothesis.
    """
    if not rows:
        raise EmptyTrace("no rows to format")
    atoms = [a for a, _ in rows[0].intervals]
    header = (
        ["time"]
        + [f"{a}_{kind}" for a in atoms for kind in ("bel", "pl")]
        + ["conflict", "status", "hypothesis"]
    )
    table = [header]
    for row in rows:
        cells = [f"{row.time:.6f}"]
        for _, interval in row.intervals:
            cells.append(f"{interval.support:.6f}")
            cells.append(f"{interval.plausibility:.6f}")
        cells.append(f"{row.cumulative_conflict:.6f}")
        cells.append(_status_label(row))
        cells.append(row.hypothesis or "")
        table.append(cells)
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in table) + "\n"
    if fmt in ("table", "pretty-table"):
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        lines = []
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown trace format {fmt!r}")
