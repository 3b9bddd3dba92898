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
  distribute over the orthogonal sum, so every step folds its own window, at
  the degrees its reports have aged to. The steps fold in lockstep, a block
  at a time: round j sums each step of the block with the (j+1)-th report of
  its window, all in one vectorised call, so a block takes as many rounds as
  its longest window rather than one combine per report per step.

Either way the steps are decided a block at a time: every atom's interval
at every step of the block comes from one kernel call, and the decision rule
is applied to the whole block at once, as :func:`decide.decide` applies it to
one step. A block holds a bounded number of steps and of focals.

Runs are batch replays: fold order is pinned (time, then sensor id) and
there is no hidden randomness, so a rerun is byte-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from ._jsonutil import number, of_type, parse_document, require
from .combine import _CONTRADICTED, CombinationReport, _Aggregate, _sum, _sum_supports
from .decide import DecisionStatus, _decide_block
from .errors import (
    DegreeOutOfRange,
    EmptyFocus,
    EmptyTrace,
    FactorOutOfRange,
    FrameMismatch,
    InvalidReport,
    InvalidTraceRow,
    InvalidWindow,
    UnknownTraceFormat,
    UnsortedReports,
    WrongType,
)
from .frames import EvidentialInterval, Frame, Proposition
from .masses import MassFunction, simple_support, vacuous

# slack when walking the step grid, so t0 + k*step lands on the last report
_GRID_EPS = 1e-9

# a replay with a longer step grid is refused rather than walked
MAX_GRID_STEPS = 1_000_000

# steps the replay decides at once, and the aged replay folds in lockstep.
# More take fewer rounds in all but hold more rows at once: on 16 atoms and
# 40-report windows, a 64-step fold peaks at about 0.5 MB traced and adds
# 0.7 MB to peak RSS, a 128-step one adds 1.3 MB, near the benchmark's 5 %
# bound, for no measured gain
_BLOCK_STEPS = 64

# focals the replay decides at once: a block closes early once its windows
# hold this many, so large windows are decided a few at a time and one past
# it alone. Deciding a block holds about 50 bytes a focal (tracemalloc), so
# a block adds under 1 MB to one window's; the benchmark replays' 64-step
# blocks hold at most about 6 000
_BLOCK_FOCALS = 1 << 14


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
        if of_type(self.focus, Proposition, "report focus").is_empty:
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
        of_type(self.frame, Frame, "scenario frame")
        reports = tuple(of_type(self.reports, Iterable, "scenario reports"))
        for r in reports:
            if of_type(r, SensorReport, "scenario report").focus.frame != self.frame:
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
    """(t, window aggregate or None when empty) per step at rate below 1.

    Every step folds its own window in the pinned left-fold order, each report
    a simple support at ``rate ** age * degree``. Steps are taken in blocks of
    ``_BLOCK_STEPS``, which fold in lockstep: round j sums every step of the
    block whose window holds more than j reports with its (j+1)-th, in one
    :func:`combine._sum_supports` call. A block takes as many rounds as its
    longest window, and memory stays flat in the length of the grid. A block
    too large to hold at once folds one step at a time.
    """
    bounds = _window_bounds(scenario, steps)
    while block := list(islice(bounds, _BLOCK_STEPS)):
        fused = _fold_block(scenario, block)
        if fused is None:  # too large to hold at once: one step at a time
            fused = [_fold_block(scenario, [b])[0] for b in block]
        yield from zip([t for t, _, _ in block], fused)


def _fold_block(scenario: Scenario, block: list) -> list[_Aggregate | None] | None:
    """The window aggregate, or None when empty, of each (t, lo, hi) of ``block``.

    Returns None instead when a round would pair more focals than
    ``combine.MAX_PAIRS``, counting the rows of the sums the block already
    holds; a block of one step never does.
    """
    frame = scenario.frame
    # fold ids by window length, longest first: the steps still folding are
    # always a prefix of the ids, and those that finish leave the rows' tail
    order = sorted(range(len(block)), key=lambda k: block[k][1] - block[k][2])
    by_length = [block[k] for k in order]
    lengths = [hi - lo for _, lo, hi in by_length]
    fused: list[_Aggregate | None] = [None] * len(block)
    held = 0
    retained = np.ones(len(block))
    # every non-empty window starts vacuous, the identity of the sum
    step = np.flatnonzero(lengths).astype(np.int16)
    bits = np.full(step.shape[0], np.uint64(frame._full_bits))
    masses = np.ones(step.shape[0])

    # lengths descend, so their negatives ascend and bisect
    def longer_than(j: int) -> int:
        return bisect_left(lengths, -j, key=int.__neg__)

    for j in range(lengths[0]):
        folding = longer_than(j)
        focus, degree = _round_supports(scenario, by_length[:folding], j)
        summed = _sum_supports(step, bits, masses, focus, degree, len(frame), held)
        if summed is None:
            return None
        step, bits, masses, conflict = summed
        retained[:folding] *= 1.0 - conflict
        going_on = longer_than(j + 1)
        cuts = np.searchsorted(step, range(going_on, folding + 1)).tolist()
        for k, a, b in zip(range(going_on, folding), cuts, cuts[1:]):
            held += b - a
            # copies, so that a finished step holds none of the round's rows
            fused[order[k]] = _CONTRADICTED if a == b else (
                MassFunction._from_arrays(frame, bits[a:b].copy(), masses[a:b].copy()),
                float(retained[k]),
            )
        step, bits, masses = step[: cuts[0]], bits[: cuts[0]], masses[: cuts[0]]
    return fused


def _round_supports(scenario: Scenario, block: list, j: int):
    """(focus bits, degree) arrays of each step's (j+1)-th window report.

    The degree is the float ``rate ** age * degree`` gives.
    """
    rate = scenario.discount_rate
    picked = [(t, scenario.reports[lo + j]) for t, lo, _ in block]
    focus = np.array([r.focus.bits for _, r in picked], dtype=np.uint64)
    degree = np.array([rate ** (t - r.time) * r.degree for t, r in picked])
    return focus, degree


def run_scenario(scenario: Scenario) -> list[TraceRow]:
    """Replay a scenario, emitting one row per step on the time grid.

    The grid starts at the first report time and advances by ``step`` up to
    the last report time; a grid of more than ``MAX_GRID_STEPS`` rows raises
    :class:`InvalidWindow`. A window's fold follows the one rule of
    :mod:`combine`: products that are exactly 0.0 are dropped, a window is
    totally conflicting only when no positive product survives, and the
    conflict is clamped at 1. So a window fuses however near 1 its conflict,
    and its row does not depend on how the window's fold is grouped. Total
    conflict at a step is recorded on the row (vacuous intervals, conflict
    1) and the run continues. Each row is what
    :func:`decide` makes of its step's fused window, decided a block of
    steps at a time (see :func:`_blocks`). A window whose fold
    needs a combine above ``combine.MAX_PAIRS`` refuses the whole run with
    :class:`CombinationTooLarge`.
    """
    if not of_type(scenario, Scenario, "scenario").reports:
        return []
    atoms = scenario.frame.atoms
    empty = vacuous(scenario.frame)
    steps = _grid_steps(scenario)
    windows = _fresh_windows if scenario.discount_rate == 1.0 else _aged_windows
    rows: list[TraceRow] = []
    for block in _blocks(windows(scenario, steps)):
        # an empty window is vacuous; a contradicted one has conflict 1, which
        # the rule reports as high conflict under any threshold
        reports = [
            CombinationReport(result=empty if mass is None else mass, conflict=1.0 - retained)
            for mass, retained in (fused or (empty, 1.0) for _, fused in block)
        ]
        _, intervals, verdicts = _decide_block(reports, scenario.conflict_threshold)
        for (t, _), report, step_intervals, (status, reason, hypothesis) in zip(
            block, reports, intervals, verdicts
        ):
            rows.append(
                TraceRow(
                    time=t,
                    intervals=tuple(zip(atoms, step_intervals)),
                    cumulative_conflict=report.conflict,
                    status=status,
                    reason=reason,
                    hypothesis=hypothesis,
                )
            )
    return rows


def _blocks(fused_steps):
    """The (t, window aggregate) steps in blocks to decide at once.

    A block closes after ``_BLOCK_STEPS`` steps, or earlier once its windows
    hold ``_BLOCK_FOCALS`` focals, so it holds fewer than that many plus one
    window's.
    """
    block: list = []
    focals = 0
    for t, fused in fused_steps:
        block.append((t, fused))
        focals += len(fused[0]) if fused and fused[0] is not None else 1
        if len(block) == _BLOCK_STEPS or focals >= _BLOCK_FOCALS:
            yield block
            block, focals = [], 0
    if block:
        yield block


def _row_atoms(row) -> tuple:
    """The atoms of a trace row, once its fields are checked.

    Only types and ranges are checked: an interval was checked when it was
    built.
    """
    of_type(row, TraceRow, "trace row")
    number(row.time, "row time", InvalidTraceRow)
    number(row.cumulative_conflict, "row conflict", DegreeOutOfRange, 0.0, 1.0)
    of_type(row.status, DecisionStatus, "row status")
    if {type(row.reason), type(row.hypothesis)} - {str, type(None)}:
        raise WrongType("row reason and hypothesis must be text or None")
    pairs = of_type(row.intervals, tuple, "row intervals")
    try:
        atoms, intervals = zip(*pairs)
    except (TypeError, ValueError):  # not pairs, or none
        atoms, intervals = (), ()
    if not atoms or set(map(type, intervals)) != {EvidentialInterval}:
        raise WrongType("row intervals must be one or more (atom, interval) pairs")
    return atoms


def _status_label(row: TraceRow) -> str:
    if row.status is DecisionStatus.CONFLICTED:
        return f"conflicted({row.reason})"
    return row.status.value


def emit_trace(rows: list[TraceRow], fmt: str = "csv") -> str:
    """Render trace rows as CSV or a plain table with identical numbers.

    Reals carry six fractional digits (round-half-even). CSV columns: time,
    then <atom>_bel,<atom>_pl per atom in frame order, then conflict,
    status, hypothesis. A row that is not a :class:`TraceRow` of a finite
    time, a conflict in [0, 1], a status, (atom name, interval) pairs on
    the first row's atoms and text or None for its reason and hypothesis is
    refused with an :class:`EvidentError`.
    """
    rows = list(of_type(rows, Iterable, "rows"))
    if not rows:
        raise EmptyTrace("no rows to format")
    atoms = _row_atoms(rows[0])
    for atom in atoms:
        of_type(atom, str, "row atom")
    for row in rows[1:]:
        if _row_atoms(row) != atoms:
            raise FrameMismatch("trace rows are on different frames")
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
