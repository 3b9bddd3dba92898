"""Replay of time-stamped sensor evidence with windowed fusion.

Each sensor report is one uncertain rule firing: a focus proposition backed
to some degree. A run walks a fixed time grid; at every step it fuses the
simple support functions of the reports inside the sliding window, applies
the decision rule, and emits one trace row.

A window is kept as a two-stacks sliding-window aggregate (Tangwongsan,
Hirzel and Schneider, "General Incremental Sliding-Window Aggregation",
VLDB 2015). Dempster's rule is associative but has no inverse, so a leaving
report cannot be subtracted from a running sum; the two stacks need
neither. A window is the sum of a front, a suffix of the reports that were
in the window when its low end last passed the split, and a back, the
reports since. Each is read off a chain: a running sum from the vacuous
aggregate, one report at a time. At rate 1 a report's support does not
change with age, so the steps of a split share its front and back chains,
and a step with both is decided from the focal pairs of the two, without
their sum. Below rate 1 every support ages between steps, and discounting
does not distribute over the orthogonal sum, so every window is a back
alone, a chain of its own at the degrees its reports have aged to at its
step. Which reports a chain sums follows from the window bounds alone, so
the chains the waiting steps need fold in lockstep, one vectorised call a
round, rather than one combine per report.

The steps are decided a block at a time: every atom's interval at every
step of the block comes from one kernel call over its windows' sides, and
one more over the front x back pairs of its two-sided windows (see
:func:`_block_bounds`), and the decision rule is applied to the whole block
at once, as :func:`decide.decide` applies it to one step. A block holds a
bounded number of steps and of focals.

Runs are batch replays: fold order is pinned (time, then sensor id) and
there is no hidden randomness, so a rerun is byte-identical.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from ._jsonutil import number, of_type, parse_document, require
from .combine import _CONTRADICTED, _Aggregate, _check_pairs, _leads, _pairs_left, _sum_supports
from .decide import DecisionStatus, _check_outcome, _decide_block
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
)
from .frames import EvidentialInterval, Frame, Proposition
from .masses import MassFunction, _singleton_bounds, vacuous

# slack of the step grid, so t0 + k*step lands on the last report and on a
# window's edges
_GRID_EPS = 1e-9

# a replay with a longer step grid is refused rather than walked
MAX_GRID_STEPS = 1_000_000

# steps the replay decides at once; it reads ahead and folds in lockstep up
# to twice as many chains. A wider wave takes fewer rounds, each with a fixed
# cost, and its rows stay within combine.MAX_PAIRS however many chains it
# holds (see _Lockstep.advance). 128 chains fold the benchmark's aged replay
# in 80 rounds, not 160, about 11 % faster; 256 gained no more. Deciding 128
# steps at once gained about 3 % more, but then a 2 000-step rate-1 replay
# held 42 % more above its rows than a 200-step one, against 27 % (in-process
# pairs, and tracemalloc after gc.collect(); a shared 2-vCPU x86 machine)
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
    """Fusion state at one step: intervals per atom plus the decision.

    A row is refused when built unless its time is a finite number
    (:class:`InvalidTraceRow`) and its other fields are those of a
    :class:`decide.Decision` (see :func:`decide._check_outcome`).
    """

    time: float
    intervals: tuple[tuple[str, EvidentialInterval], ...]
    cumulative_conflict: float
    status: DecisionStatus
    reason: str | None
    hypothesis: str | None

    def __post_init__(self):
        object.__setattr__(self, "time", number(self.time, "row time", InvalidTraceRow))
        _check_outcome(self, self.intervals, "row")


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
    """(t, lo, hi) per grid step; ``reports[lo:hi]`` are in the window at t.

    The window holds t - window + slack < time <= t + slack, the slack being
    the grid's ``_GRID_EPS``: as the grid reaches a last report that rounding
    puts just after it, a report that rounding puts just after t is in, and
    one just after t - window is out. Reports within the slack of t are in
    however narrow the window, even narrower than the float spacing at t.
    """
    times = [r.time for r in scenario.reports]
    t0 = times[0]
    for k in range(steps):
        t = t0 + k * scenario.step
        lo = bisect_right(times, t - scenario.window + _GRID_EPS)
        lo = min(lo, bisect_left(times, t - _GRID_EPS))
        yield t, lo, bisect_right(times, t + _GRID_EPS)


def _splits(scenario: Scenario, steps: int):
    """(t, lo, b, hi) per grid step: the window ``reports[lo:hi]`` split at ``b``.

    At rate 1 these are the two stacks' front ``[lo, b)`` and back ``[b, hi)``.
    Reports enter at the back; the split stays put until the window's low end
    passes it, when the two stacks move the whole back to the front: b
    becomes the window's high end before the step, or its low end past a gap.
    Below rate 1 a window is a back alone, split at its low end.
    """
    aged = scenario.discount_rate < 1.0
    b = hi = 0
    for t, lo, new_hi in _window_bounds(scenario, steps):
        if aged:
            b = lo
        elif lo > b:
            b = max(lo, hi)
        hi = new_hi
        yield t, lo, b, hi


class _Chain:
    """One running sum from the vacuous row, folded a report a round.

    A back chain sums reports b, b+1, ... in order and a front chain b-1,
    b-2, ..., as the two stacks sum them, each report at the degree it has
    aged to at ``t``. ``sums`` keeps its aggregate at each length a step
    needs, and ``wanted`` lists those lengths, ascending. While later
    steps of its split may still be read, a front chain also keeps every
    length below ``open_below``: those steps need shorter suffixes, not yet
    known, that it may have passed. A wave takes a chain on from its longest
    sum kept, whose ``length`` it records.
    """

    __slots__ = ("first", "sign", "t", "length", "target", "sums", "rows", "wanted",
                 "open_below")

    def __init__(self, b: int, sign: int, t: float):
        self.first = b if sign > 0 else b - 1
        self.sign = sign
        self.t = t
        self.length = self.target = self.open_below = 0
        self.rows = 0  # of the sums kept
        self.sums: dict[int, _Aggregate] = {}
        self.wanted: list[int] = []

    def due(self, length: int) -> int:
        """The first length past ``length`` whose sum a step may need."""
        n = length + 1
        return n if n < self.open_below else self.wanted[bisect_left(self.wanted, n)]


class _Lockstep:
    """The chains the waiting steps of a replay need, folded in lockstep.

    At rate 1 the steps of a split share its front and back chains; below,
    each step has a back chain of its own, aged to its time. The chains short
    of their targets fold in waves, as flat rows held from round to round:
    row i is focal ``bits[i]``, of mass ``masses[i]``, of chain
    ``folding[step[i]]``, ascending by chain and then by mask, as
    :func:`combine._sum_supports` takes them. A wave orders its chains by
    the rounds they take to their targets as it begins, most first, so that
    the chains that reach them leave from the rows' tail; a chain that a
    later step needs longer, or that a wave ends before its target (see
    :meth:`advance`), goes on in a later wave from its longest sum kept.
    """

    def __init__(self, scenario: Scenario):
        self.frame = scenario.frame
        self.reports = scenario.reports
        self.rate = scenario.discount_rate
        self.chains: dict[tuple, _Chain] = {}
        self.held = 0  # rows of the sums the chains keep
        self.last_key = None  # the split of the last step read
        self.folding: list[_Chain] = []
        self.rounds = 0  # the wave has folded
        # per chain of the wave: the rounds to its target as the wave began,
        # the round at which a step may next need its sum, its retained mass
        self.ends: list[int] = []
        self.due = np.zeros(0, np.intp)
        self.retained = np.zeros(0)
        # chains index the rows in int16: they number at most 2 * _BLOCK_STEPS + 1
        self.rows = [np.zeros(0, np.int16), np.zeros(0, np.uint64), np.zeros(0)]

    def key(self, step: tuple):
        """The split whose chains the step reads; below rate 1, the step's
        time, which fixes its window."""
        return step[2] if self.rate == 1.0 else step[0]

    def ahead(self, parts) -> int:
        """Rows held beyond the sums of a step's front, of its ``parts``, which
        the pairwise two stacks hold as well: what reading and folding ahead
        hold."""
        front = parts[0][0]
        return self.held - (front.rows if front else 0)

    def reads_on(self, waiting: deque, queued: int) -> bool:
        """Whether to read a step past the ``waiting`` ones.

        Reading on pays only while the last step read still waits for a
        chain to fold, so that the next may fold beside it. The chains stay
        within two blocks' steps, and the rows held ahead of the first waiting
        step plus the ``queued`` steps and their reports within
        ``_BLOCK_FOCALS``.
        """
        return (
            not self.ready(waiting[-1][2])
            and len(self.chains) < 2 * _BLOCK_STEPS
            and self.ahead(waiting[0][2]) + queued < _BLOCK_FOCALS
        )

    def need(self, step: tuple) -> list:
        """Register a step read; return its parts, the (chain or None, length)
        of its front and its back, whose sums must be kept.

        Steps are read in order, so no step read later has the split of the
        last step read if this one's differs: that front is no longer open.
        """
        key = self.key(step)
        if key != self.last_key and (self.last_key, -1) in self.chains:
            self.chains[self.last_key, -1].open_below = 0
        self.last_key = key
        t, lo, b, hi = step
        parts = []
        for sign, length in ((-1, b - lo), (1, hi - b)):
            chain = self.chains.get((key, sign))
            if length:
                if chain is None:
                    chain = self.chains[key, sign] = _Chain(b, sign, t)
                chain.target = max(chain.target, length)
                insort(chain.wanted, length)
                if sign < 0:
                    chain.open_below = length
            parts.append((chain, length))
        return parts

    @staticmethod
    def ready(parts) -> bool:
        """Whether the sums of a step's front and back, its ``parts``, are kept."""
        (front, n_front), (back, n_back) = parts
        return (not n_front or n_front in front.sums) and (not n_back or n_back in back.sums)

    def window(self, key, parts, last: bool) -> tuple[_Aggregate, ...]:
        """The sides of a step's window, from its split's ``key`` and its
        ``parts``: the aggregates of its front and its back, of those it has,
        or a contradicted one alone when either is. The sums later steps
        need stay.

        Two sides of more than ``combine.MAX_PAIRS`` focal pairs raise
        :class:`CombinationTooLarge`, as their orthogonal sum would. Fronts
        shrink and backs grow from step to step, so a later step of the split
        needs no longer front and no shorter back; after the ``last`` step of
        its split, neither chain is needed.
        """
        (front, n_front), (back, n_back) = parts
        sides = tuple(chain.sums[n] for chain, n in parts if n)
        for chain, stale in ((front, n_front.__lt__), (back, n_back.__gt__)):
            for n in list(chain.sums if last else filter(stale, chain.sums)) if chain else ():
                mass = chain.sums.pop(n)[0]
                rows = 0 if mass is None else mass._bits.shape[0]
                chain.rows -= rows
                self.held -= rows
        if last:
            self.chains.pop((key, -1), None)
            self.chains.pop((key, 1), None)
        if len(sides) < 2:
            return sides
        (front, _), (back, _) = sides
        if front is None or back is None:
            return (_CONTRADICTED,)
        _check_pairs(front._bits.shape[0], back._bits.shape[0])
        return sides

    def advance(self, head) -> None:
        """Fold a round of the wave, beginning one if none is folding.

        The chains of the first waiting step, of ``head`` parts, always fold;
        one sum above ``combine.MAX_PAIRS`` pairs raises
        :class:`CombinationTooLarge`. The wave's other chains fold while the
        sums held ahead of that step stay under ``_BLOCK_FOCALS``, and while
        the round's pairs, counted as two a row, and the rows of the sums held
        come to at most ``combine.MAX_PAIRS``. Past either, the wave ends at
        the chains that fit, taken in its order, so that its rows stay within
        one capped round; the rest go on in a later wave.
        """
        mine = [chain for chain, _ in head]
        over = self.ahead(head) >= _BLOCK_FOCALS
        if not self.folding:
            self.begin([c for c in self.chains.values() if not over or c in mine])
        chains, j = self.folding, self.rounds
        room = -1 if over else _pairs_left(self.held)
        if 2 * len(self.rows[0]) > room and any(c not in mine for c in chains):
            pairs = 2 * np.bincount(self.rows[0], minlength=len(chains))
            keep = np.array([c in mine for c in chains])
            keep |= np.cumsum(np.where(keep, 0, pairs)) <= room - pairs[keep].sum()
            kept = keep[self.rows[0]]
            ids = (np.cumsum(keep) - 1).astype(np.int16)
            self.rows = [ids[self.rows[0][kept]]] + [a[kept] for a in self.rows[1:]]
            self.folding = chains = [c for c, k in zip(chains, keep) if k]
            self.ends = [e for e, k in zip(self.ends, keep) if k]
            self.due, self.retained = self.due[keep], self.retained[keep]
            if not chains:
                return
        focus, degree = self.supports(chains, j)
        step, bits, masses, conflict = _sum_supports(*self.rows, focus, degree, len(self.frame))
        self.retained *= 1.0 - conflict
        self.rounds = j = j + 1
        self.rows = [step, bits, masses]
        hits = np.flatnonzero(self.due == j).tolist()
        cuts = np.searchsorted(step, [k + d for k in hits for d in (0, 1)]).tolist()
        leaving = 0
        for k, a, b in zip(hits, cuts[::2], cuts[1::2]):
            chain = chains[k]
            n = chain.length + j
            if chain.due(n - 1) == n:
                # copies, so that a sum holds none of the round's rows
                chain.sums[n] = _CONTRADICTED if a == b else (
                    MassFunction._from_arrays(self.frame, bits[a:b].copy(), masses[a:b].copy()),
                    float(self.retained[k]),
                )
                chain.rows += b - a
                self.held += b - a
            if j < self.ends[k]:
                self.due[k] = chain.due(n) - chain.length
            else:
                leaving += 1
        if leaving:
            # the rows' head: copies when most rows leave, so that the wave
            # holds no more of the round's arrays than it folds on
            going_on = len(chains) - leaving
            end = int(np.searchsorted(step, going_on))
            self.rows = [a[:end].copy() if 2 * end < len(a) else a[:end] for a in self.rows]
            del self.folding[going_on:], self.ends[going_on:]
            self.due, self.retained = self.due[:going_on], self.retained[:going_on]

    def supports(self, chains: list[_Chain], j: int):
        """(focus bits, degree) arrays of the report each chain sums in round
        ``j`` of the wave.

        The degree is the float ``rate ** age * degree`` gives; a report up to
        the grid's slack after the chain's time has age 0.
        """
        picked = [(c.t, self.reports[c.first + c.sign * (c.length + j)]) for c in chains]
        focus = np.array([r.focus.bits for _, r in picked], dtype=np.uint64)
        # Python's float power, one report at a time: NumPy's vectorised ``**``
        # (its SIMD path on x86-64 with AVX-512) is off Python's by an ulp on
        # about 6 % of ages at rate 0.99, which would move aged rows by as
        # much, below what the reference tests' 1e-12 tolerance can see
        rate = self.rate
        degree = np.array(
            [rate ** (t - r.time) * r.degree if r.time < t else r.degree for t, r in picked]
        )
        return focus, degree

    def begin(self, chains: list[_Chain]) -> None:
        """Begin a wave of the ``chains`` short of their targets, each from its
        longest sum kept or from the vacuous row."""
        for chain in chains:
            chain.length = max(chain.sums, default=0)
        chains = sorted(
            (c for c in chains if c.length < c.target), key=lambda c: c.length - c.target
        )
        if not chains:
            raise AssertionError("a waiting step has no chain left to fold")
        empty = vacuous(self.frame)
        starts = [chain.sums[chain.length] if chain.length else (empty, 1.0) for chain in chains]
        # a contradicted chain has no rows
        rows = [(empty._bits[:0], empty._masses[:0]) if m is None else (m._bits, m._masses)
                for m, _ in starts]
        ids = np.arange(len(chains), dtype=np.int16)
        self.rows = [ids.repeat([len(bits) for bits, _ in rows])]
        self.rows += [np.concatenate(column) for column in zip(*rows)]
        self.folding, self.rounds = chains, 0
        self.ends = [c.target - c.length for c in chains]
        self.due = np.array([c.due(c.length) - c.length for c in chains])
        self.retained = np.array([retained for _, retained in starts])


def _windows(scenario: Scenario, steps: int):
    """(t, the sides of its window) per step (see :meth:`_Lockstep.window`).

    The window is the sum of its front and its back (see :func:`_splits`).
    The chains of prefix or suffix sums that the steps read so far need fold
    in lockstep (see :class:`_Lockstep`): each round sums every chain of the
    wave with its next report, in one :func:`combine._sum_supports` call, so
    a chain sums each of its reports once, but for the reports past its
    longest sum kept when a wave ends early. A step is yielded once its sums
    are there, and a step with both is decided from the two (see
    :func:`_block_bounds`). Steps are read
    ahead while the last one read waits for a fold, the chains number fewer
    than ``2 * _BLOCK_STEPS``, and the rows of the sums held plus the waiting
    steps and the reports in their backs come to under ``_BLOCK_FOCALS``
    (see :meth:`_Lockstep.reads_on`); once the sums held reach that, only
    the chains of the first waiting step fold. Neither counts the front sums
    of the first waiting step, which the pairwise two stacks hold too, so
    memory stays flat in the length of the grid. A wave whose round and
    sums held would pass ``combine.MAX_PAIRS`` ends at the chains that fit
    beside the first waiting step's (see :meth:`_Lockstep.advance`).
    """
    lockstep = _Lockstep(scenario)
    splits = _splits(scenario, steps)
    waiting: deque = deque()
    queued = 0  # the waiting steps and the reports in their backs
    split = next(splits, None)
    while split or waiting:
        if waiting and lockstep.ready(waiting[0][2]):
            step, key, parts = waiting.popleft()
            queued -= 1 + step[3] - step[2]
            later = waiting[0][1] if waiting else split and lockstep.key(split)
            yield step[0], lockstep.window(key, parts, later != key)
        elif not (waiting or split[1] < split[3] or (lockstep.key(split), -1) in lockstep.chains):
            # an empty window past the last sums of its split waits for nothing
            yield split[0], ()
            split = next(splits, None)
        else:
            while split and (not waiting or lockstep.reads_on(waiting, queued)):
                waiting.append((split, lockstep.key(split), lockstep.need(split)))
                queued += 1 + split[3] - split[2]
                split = next(splits, None)
            while not lockstep.ready(waiting[0][2]):
                lockstep.advance(waiting[0][2])


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
    1) and the run continues. Each row is what :func:`decide` makes of its
    step's fused window, decided a block of steps at a time (see
    :func:`_blocks`); a window of a front and a back is decided from the
    two, without their sum (see :func:`_block_bounds`). A window whose fold
    needs a combine above ``combine.MAX_PAIRS`` refuses the whole run with
    :class:`CombinationTooLarge`.
    """
    if not of_type(scenario, Scenario, "scenario").reports:
        return []
    frame = scenario.frame
    steps = _grid_steps(scenario)
    rows: list[TraceRow] = []
    for block in _blocks(_windows(scenario, steps)):
        bel, pl, conflicts = _block_bounds(frame, [sides for _, sides in block])
        intervals, verdicts = _decide_block(frame, bel, pl, conflicts, scenario.conflict_threshold)
        # a verdict is (status, reason, hypothesis), the row's last fields
        for (t, _), conflict, cells, verdict in zip(block, conflicts, intervals, verdicts):
            rows.append(TraceRow(t, tuple(zip(frame.atoms, cells)), conflict, *verdict))
    return rows


def _blocks(windows):
    """The (t, window sides) steps in blocks to decide at once.

    A block closes after ``_BLOCK_STEPS`` steps, or earlier once its windows'
    sides hold ``_BLOCK_FOCALS`` focals, so it holds fewer than that many
    plus one window's. A window with no focals counts as the one it is
    decided on.
    """
    block: list = []
    focals = 0
    for t, sides in windows:
        block.append((t, sides))
        focals += sum([mass._bits.shape[0] for mass, _ in sides if mass is not None]) or 1
        if len(block) == _BLOCK_STEPS or focals >= _BLOCK_FOCALS:
            yield block
            block, focals = [], 0
    if block:
        yield block


def _block_bounds(frame: Frame, windows: list):
    """(bel, pl, conflicts) of a block's steps, each given by its window's sides.

    bel and pl are (steps, atoms) arrays, as :func:`decide._decide_block`
    takes them. A window of one side is decided on its sum, and an empty or
    a contradicted one as vacuous, with conflict 0 or 1: the rule reports
    conflict 1 as high under any threshold. A window of a front
    F and a back B is decided from their focal pairs, without their sum:

    - the conflict k and the mass on exactly atom a, m(a), are the products'
      sums on the empty set and on {a}, which ``combine._sum(F, B)`` groups
      to the same bits (see :func:`_kernels.class_products`), so the
      conflict column keeps its bits;
    - T, the products' mass on every non-empty set, is the singletons' sums
      and then the rest's, added in that order: never 1 - k, which cancels
      when k is near 1. bel(a) = m(a) / T;
    - singleton plausibility is singleton commonality, which the orthogonal
      sum multiplies (Shafer, *A Mathematical Theory of Evidence*, 1976), so
      pl(a) = pl_F(a) pl_B(a) / T, clamped at 1 and raised to bel(a) where
      rounding puts it below.

    A window with no positive product on a non-empty set is contradicted.
    Every side's bounds come from one :func:`masses._singleton_bounds` call,
    each two-sided window's back at a step past the block.
    """
    n = len(windows)
    empty = vacuous(frame)
    conflicts = [1.0 - sides[0][1] if len(sides) == 1 else 0.0 for sides in windows]
    two = [k for k, sides in enumerate(windows) if len(sides) == 2]
    # a step's first side, or the vacuous sum; then each two-sided step's back
    masses = [empty if not sides or sides[0][0] is None else sides[0][0] for sides in windows]
    masses += [windows[k][1][0] for k in two]
    bel, pl = _singleton_bounds(frame, masses)
    if two:
        operands = []
        for k in two:
            pair = [(mass._bits, mass._masses) for mass, _ in windows[k]]
            # combine._pooled's operand order
            operands.append(pair if _leads(*pair) else pair[::-1])
        sums = _kernels.class_products(operands, len(frame))
        # added in order: the singletons, then the rest
        total = np.bincount(
            np.repeat(np.arange(len(two)), len(frame) + 1), weights=sums[:, 1:].ravel()
        )
        live = total > 0.0
        scale = np.where(live, total, 1.0)[:, None]
        fused_bel = sums[:, 1:-1] / scale
        fused_pl = np.maximum(fused_bel, np.minimum(pl[two] * pl[n:] / scale, 1.0))
        bel[two] = np.where(live[:, None], fused_bel, 0.0)
        pl[two] = np.where(live[:, None], fused_pl, 1.0)
        front_back = np.array([windows[k][0][1] * windows[k][1][1] for k in two])
        retained = np.where(live, front_back * (1.0 - np.minimum(sums[:, 0], 1.0)), 0.0)
        for k, r in zip(two, retained.tolist()):
            conflicts[k] = 1.0 - r
    return bel[:n], pl[:n], conflicts


def _status_label(row: TraceRow) -> str:
    if row.status is DecisionStatus.CONFLICTED:
        return f"conflicted({row.reason})"
    return row.status.value


def emit_trace(rows: list[TraceRow], fmt: str = "csv") -> str:
    """Render trace rows as CSV or a plain table with identical numbers.

    Reals carry six fractional digits (round-half-even). CSV columns: time,
    then <atom>_bel,<atom>_pl per atom in frame order, then conflict,
    status, hypothesis. A row checks its own fields when it is built; here
    anything but a :class:`TraceRow` is refused with :class:`WrongType`, and
    rows on other atoms than the first row's with :class:`FrameMismatch`.
    """
    if fmt not in ("csv", "table", "pretty-table"):
        raise UnknownTraceFormat(f"unknown trace format {fmt!r}")
    rows = list(of_type(rows, Iterable, "rows"))
    if not rows:
        raise EmptyTrace("no rows to format")
    atoms = [a for a, _ in of_type(rows[0], TraceRow, "trace row").intervals]
    for row in rows[1:]:
        if [a for a, _ in of_type(row, TraceRow, "trace row").intervals] != atoms:
            raise FrameMismatch("trace rows are on different frames")
    header = (
        ["time"]
        + [f"{a}_{kind}" for a in atoms for kind in ("bel", "pl")]
        + ["conflict", "status", "hypothesis"]
    )
    # every real of a row at once; %-style and format-style .6f round alike
    numbers = ",".join(["%.6f"] * (2 * len(atoms) + 2))
    table = [header]
    for row in rows:
        values = [row.time]
        for _, interval in row.intervals:
            values += (interval.support, interval.plausibility)
        values.append(row.cumulative_conflict)
        table.append([numbers % tuple(values), _status_label(row), row.hypothesis or ""])
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in table) + "\n"
    # the numeric cells hold no commas
    table[1:] = [cells[0].split(",") + cells[1:] for cells in table[1:]]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
