"""Replay of time-stamped sensor evidence with windowed fusion.

Each sensor report is one uncertain rule firing: a focus proposition backed
to some degree. A run walks a fixed time grid; at every step it fuses the
simple support functions of the reports inside the sliding window, applies
the decision rule, and emits one trace row.

How a window is fused depends on the scenario's discount rate alone:

- At rate 1 a report's support does not change with age, so the window is
  kept as a two-stacks sliding-window aggregate (Tangwongsan, Hirzel and
  Schneider, "General Incremental Sliding-Window Aggregation", VLDB 2015).
  Dempster's rule is associative but has no inverse, so a leaving report
  cannot be subtracted from a running sum; the two stacks need neither, and
  take a few combines per step instead of a refold of the whole window.
  Until a report leaves, the window is the plain left fold of its reports.
- Below rate 1 every support ages between steps, and discounting does not
  distribute over the orthogonal sum, so each step refolds its window from
  supports built directly at their discounted degree.

Runs are batch replays: fold order is pinned (time, then sensor id) and
there is no hidden randomness, so a rerun is byte-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from ._jsonutil import number, parse_document, require
from .combine import CombinationReport, _Aggregate, _sum
from .decide import DecisionStatus, decide
from .errors import (
    DegreeOutOfRange,
    EmptyFocus,
    EmptyTrace,
    FactorOutOfRange,
    FrameMismatch,
    InvalidReport,
    InvalidWindow,
    UnknownTraceFormat,
    UnsortedReports,
)
from .frames import Frame, Proposition
from .masses import EvidentialInterval, MassFunction, simple_support, vacuous

# slack when walking the step grid, so t0 + k*step lands on the last report
_GRID_EPS = 1e-9

# a replay with a longer step grid is refused rather than walked
MAX_GRID_STEPS = 1_000_000


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
        time = number(self.time, "report time", InvalidReport, 0.0)
        if self.focus.is_empty:
            raise EmptyFocus("report focus must be non-empty")
        degree = number(self.degree, "report degree", DegreeOutOfRange, 0.0, 1.0)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "degree", degree)


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
        for name, error, hi, lo_open in (
            ("window", InvalidWindow, math.inf, True),
            ("step", InvalidWindow, math.inf, True),
            ("discount_rate", FactorOutOfRange, 1.0, False),
            ("conflict_threshold", DegreeOutOfRange, 1.0, True),
        ):
            label = name.replace("_", " ")
            value = number(getattr(self, name), label, error, 0.0, hi, lo_open)
            object.__setattr__(self, name, value)
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
    params = {
        key: number(doc[key], f"scenario {key!r}")
        for key in ("window", "step", "discount_rate", "conflict_threshold")
        if key in doc
    }
    raw_reports = doc.get("reports", [])
    require(isinstance(raw_reports, list), "'reports' must be a list")
    reports = []
    for obj in raw_reports:
        require(isinstance(obj, dict), "each report must be a JSON object")
        require(isinstance(obj.get("sensor"), str), "report needs a string 'sensor'")
        require(isinstance(obj.get("focus"), list), "report needs a 'focus' list")
        reports.append(
            SensorReport(
                sensor_id=obj["sensor"],
                time=obj.get("t"),
                focus=frame.proposition(obj["focus"]),
                degree=obj.get("degree"),
            )
        )
    return Scenario(frame=frame, reports=tuple(reports), **params)


def _grid_steps(scenario: Scenario) -> int:
    """Rows of the step grid t0 + k*step, k = 0, 1, ..., up to the last report.

    Raises :class:`InvalidWindow` above ``MAX_GRID_STEPS`` rows. That covers
    a grid whose times stop advancing, where ``step`` is below half the float
    spacing at t0, except when every report is at t0: that grid's one
    distinct time is its one row.
    """
    t0 = scenario.reports[0].time
    t_end = scenario.reports[-1].time
    limit = t_end + _GRID_EPS
    step = scenario.step
    # t0 + k*step never decreases in k, so the first k past the limit bisects
    steps = bisect_left(
        range(MAX_GRID_STEPS + 1), True, key=lambda k: t0 + k * step > limit
    )
    if steps > MAX_GRID_STEPS:
        if t_end == t0 and t0 + step == t0:
            return 1
        raise InvalidWindow(
            f"step {step!r} from t={t0!r} to t={t_end!r} makes more than"
            f" {MAX_GRID_STEPS} grid steps"
        )
    return steps


def _window_bounds(scenario: Scenario, steps: int):
    """(t, lo, hi) per grid step; ``reports[lo:hi]`` lie in t - window < time <= t.

    Reports at t itself are always in: where the window is narrower than the
    float spacing at t, ``t - window`` rounds to t.
    """
    times = [r.time for r in scenario.reports]
    t0 = times[0]
    for k in range(steps):
        t = t0 + k * scenario.step
        lo = min(bisect_right(times, t - scenario.window), bisect_left(times, t))
        yield t, lo, bisect_right(times, t)


class _TwoStacks:
    """The orthogonal sum of a sliding window of supports.

    Supports enter at the back, whose running sum is their left fold. When
    the oldest must leave and the front is empty, the back moves to the
    front as suffix sums, one combine each, so every support takes part in
    O(1) combines while it is in the window. Front and back sums are only
    combined with each other when both are non-empty.
    """

    def __init__(self) -> None:
        self._front: list[_Aggregate] = []  # suffix sums; the last starts at the oldest
        self._back: list[MassFunction] = []
        self._back_sum: _Aggregate | None = None

    def push(self, support: MassFunction) -> None:
        item = (support, 1.0)
        self._back_sum = item if self._back_sum is None else _sum(self._back_sum, item)
        self._back.append(support)

    def evict(self, count: int) -> None:
        """Drop the ``count`` oldest supports."""
        while count and self._front:
            self._front.pop()
            count -= 1
        if count:
            acc = None
            for support in reversed(self._back[count:]):
                acc = (support, 1.0) if acc is None else _sum((support, 1.0), acc)
                self._front.append(acc)
            self._back = []
            self._back_sum = None

    def total(self) -> _Aggregate | None:
        """The window's sum; None when it holds no support."""
        if self._front and self._back_sum is not None:
            return _sum(self._front[-1], self._back_sum)
        return self._front[-1] if self._front else self._back_sum


def _fresh_windows(scenario: Scenario, steps: int):
    """(t, window aggregate or None when empty) per step at discount rate 1."""
    frame = scenario.frame
    window = _TwoStacks()
    lo = hi = 0
    for t, new_lo, new_hi in _window_bounds(scenario, steps):
        window.evict(min(new_lo, hi) - lo)
        for r in scenario.reports[max(new_lo, hi):new_hi]:
            window.push(simple_support(frame, r.focus, r.degree))
        lo, hi = new_lo, new_hi
        yield t, window.total()


def _aged_windows(scenario: Scenario, steps: int):
    """(t, window aggregate or None when empty) per step at rate below 1."""
    frame = scenario.frame
    rate = scenario.discount_rate
    for t, lo, hi in _window_bounds(scenario, steps):
        fused = None
        for r in scenario.reports[lo:hi]:
            item = (simple_support(frame, r.focus, rate ** (t - r.time) * r.degree), 1.0)
            fused = item if fused is None else _sum(fused, item)
        yield t, fused


def run_scenario(scenario: Scenario) -> list[TraceRow]:
    """Replay a scenario, emitting one row per step on the time grid.

    The grid starts at the first report time and advances by ``step`` up to
    the last report time; a grid of more than ``MAX_GRID_STEPS`` rows raises
    :class:`InvalidWindow`. Total conflict at a step is recorded on the row
    (vacuous intervals, conflict 1) and the run continues. A window whose fold
    needs a combine above ``combine.MAX_PAIRS`` refuses the whole run with
    :class:`CombinationTooLarge`.
    """
    if not scenario.reports:
        return []
    atoms = scenario.frame.atoms
    empty = vacuous(scenario.frame)
    steps = _grid_steps(scenario)
    windows = _fresh_windows if scenario.discount_rate == 1.0 else _aged_windows
    rows: list[TraceRow] = []
    for t, fused in windows(scenario, steps):
        # an empty window is vacuous; a contradicted one has conflict 1, which
        # decide reports as high conflict under any threshold
        mass, retained = fused or (empty, 1.0)
        report = CombinationReport(
            result=empty if mass is None else mass, conflict=1.0 - retained
        )
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
    raise UnknownTraceFormat(f"unknown trace format {fmt!r}")
