"""Scenario loading, windowed replay, and trace formatting."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import random
import sys
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from evident import (
    CombinationReport,
    DecisionStatus,
    EvidentialInterval,
    Frame,
    MassFunction,
    Scenario,
    SensorReport,
    combine_all,
    decide,
    discount,
    emit_trace,
    load_scenario,
    run_scenario,
    simple_support,
    vacuous,
)
from evident import scenario as scenario_module
from evident.decide import HIGH_CONFLICT, TIE, TIE_TOL
from evident.errors import (
    DegreeOutOfRange,
    EmptyFocus,
    EmptyTrace,
    EvidentError,
    FrameMismatch,
    InvalidReport,
    InvalidWindow,
    ParseError,
    TotalConflict,
    UnknownAtom,
    UnsortedReports,
)

from perfbench import gen

from .conftest import ATOM_POOL
from .oracles import (
    bel_oracle,
    decide_oracle,
    focal_map,
    fold_products,
    left_fold_windows,
    pl_oracle,
    two_stacks_windows,
)

DATA = Path(__file__).parent / "data"

combine_module = importlib.import_module("evident.combine")
masses_module = importlib.import_module("evident.masses")


def scenario_from(frame_atoms, report_tuples, **params) -> Scenario:
    frame = Frame(frame_atoms)
    reports = tuple(
        SensorReport(
            sensor_id=sensor,
            time=t,
            focus=frame.proposition(focus),
            degree=degree,
        )
        for sensor, t, focus, degree in report_tuples
    )
    return Scenario(frame=frame, reports=reports, **params)


class TestLoadScenario:
    def test_degenerate_document(self):
        scenario = load_scenario('{"frame": ["lake"], "reports": []}')
        assert scenario.reports == ()
        assert scenario.window == 10.0
        assert scenario.step == 1.0
        assert scenario.discount_rate == 1.0
        assert scenario.conflict_threshold == 0.95

    def test_unknown_focus_atom(self):
        doc = {
            "frame": ["lake"],
            "reports": [{"sensor": "eo", "t": 0, "focus": ["rivr"], "degree": 0.5}],
        }
        with pytest.raises(UnknownAtom):
            load_scenario(json.dumps(doc))

    def test_bundled_fixture(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        assert len(scenario.reports) == 6
        assert scenario.frame.atoms == ("lake", "tower", "ridge", "clear")
        assert scenario.window == 10.0 and scenario.step == 5.0

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            load_scenario('{"frame": ["lake"],\n "window": }')
        assert err.value.line == 2

    def test_unsorted_reports(self):
        doc = {
            "frame": ["lake"],
            "reports": [
                {"sensor": "eo", "t": 5, "focus": ["lake"], "degree": 0.5},
                {"sensor": "eo", "t": 1, "focus": ["lake"], "degree": 0.5},
            ],
        }
        with pytest.raises(UnsortedReports):
            load_scenario(json.dumps(doc))

    def test_invalid_window_and_step(self):
        with pytest.raises(InvalidWindow):
            load_scenario('{"frame": ["lake"], "window": 0, "reports": []}')
        with pytest.raises(InvalidWindow):
            load_scenario('{"frame": ["lake"], "step": -1, "reports": []}')

    def test_wrong_types_rejected(self):
        with pytest.raises(ParseError):
            load_scenario('{"frame": ["lake"], "window": "wide", "reports": []}')
        with pytest.raises(ParseError):
            load_scenario('{"frame": "lake", "reports": []}')

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected(self, constant):
        doc = (
            '{"frame": ["lake"], "reports": [{"sensor": "eo", "t": %s,'
            ' "focus": ["lake"], "degree": 0.5}]}' % constant
        )
        with pytest.raises(ParseError, match="non-finite"):
            load_scenario(doc)

    def test_conflict_threshold_validated(self):
        for threshold in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(DegreeOutOfRange):
                scenario_from(["lake"], [], conflict_threshold=threshold)
        assert scenario_from(["lake"], [], conflict_threshold=1.0).conflict_threshold == 1.0

    def test_report_validation(self):
        frame = Frame(["lake"])
        with pytest.raises(DegreeOutOfRange):
            SensorReport("eo", 0.0, frame.proposition(["lake"]), 1.5)
        with pytest.raises(EmptyFocus):
            SensorReport("eo", 0.0, frame.empty(), 0.5)
        for time in (-1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidReport):
                SensorReport("eo", time, frame.proposition(["lake"]), 0.5)


class TestRunScenario:
    def test_single_report_row(self):
        scenario = scenario_from(
            ["lake", "tower"], [("eo", 0.0, ["lake"], 0.6)], window=10.0
        )
        (row,) = run_scenario(scenario)
        assert row.time == 0.0
        intervals = dict(row.intervals)
        assert tuple(intervals["lake"]) == (0.6, 1.0)
        assert tuple(intervals["tower"]) == (0.0, 0.4)
        # 0.6 belief strictly clears every rival's 0.4 plausibility
        assert row.status is DecisionStatus.DECIDED
        assert row.hypothesis == "lake"

    def test_agreeing_reports_accumulate(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 0.0, ["lake"], 0.6), ("ir", 1.0, ["lake"], 0.5)],
            window=10.0,
            step=1.0,
        )
        rows = run_scenario(scenario)
        assert dict(rows[1].intervals)["lake"].support == pytest.approx(0.8, abs=1e-15)

    def test_window_excludes_old_reports(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 0.0, ["lake"], 0.6), ("ir", 15.0, ["tower"], 0.5)],
            window=10.0,
            step=15.0,
        )
        rows = run_scenario(scenario)
        last = dict(rows[-1].intervals)
        # the t=0 lake report has aged out entirely by t=15
        assert last["lake"].support == 0.0
        assert last["tower"].support == 0.5

    def test_report_on_window_edge_is_excluded(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 0.0, ["lake"], 0.6), ("ir", 10.0, ["tower"], 0.5)],
            window=10.0,
            step=10.0,
        )
        last = dict(run_scenario(scenario)[-1].intervals)
        # selection is strict on the left edge: t - window < report time
        assert last["lake"].support == 0.0

    @pytest.mark.parametrize("rate", [1.0, 0.9])
    def test_last_report_a_rounding_above_its_step_is_fused(self, rate):
        # the grid's 35th time is 1 + 34 * 0.7 = 24.799999999999997, which
        # reaches the report at 24.8 within the grid's slack
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 1, ["lake"], 0.5), ("ir", 24.8, ["tower"], 0.9)],
            window=5,
            step=0.7,
            discount_rate=rate,
        )
        last = run_scenario(scenario)[-1]
        assert last.time == 1 + 34 * 0.7 < 24.8
        assert dict(last.intervals)["tower"] == EvidentialInterval(0.9, 1.0)
        assert (last.status, last.hypothesis) == (DecisionStatus.DECIDED, "tower")
        assert_matches_reference(scenario)

    @pytest.mark.parametrize("rate", [1.0, 0.9])
    def test_report_a_rounding_inside_the_left_edge_is_out(self, rate):
        # at t = 0.1 + 10, t - window is 0.09999999999999964: the report at
        # 0.1 is a window old, on the left edge within the slack
        reports = [("eo", 0.1, ["lake"], 0.6), ("ir", 10.1, ["tower"], 0.5)]
        scenario = scenario_from(
            ["lake", "tower"], reports, window=10.0, step=10.0, discount_rate=rate
        )
        last = run_scenario(scenario)[-1]
        assert last.time == 10.1 and last.time - 10.0 < 0.1
        assert dict(last.intervals)["lake"].support == 0.0
        assert_matches_reference(scenario)

    def test_gap_steps_are_vacuous_ties(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 0.0, ["lake"], 0.6), ("ir", 25.0, ["tower"], 0.5)],
            window=10.0,
            step=5.0,
        )
        rows = run_scenario(scenario)
        by_time = {row.time: row for row in rows}
        gap = by_time[15.0]
        assert gap.status is DecisionStatus.CONFLICTED
        assert gap.reason == TIE
        assert all(tuple(iv) == (0.0, 1.0) for _, iv in gap.intervals)

    def test_total_conflict_row_continues(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [
                ("eo", 0.0, ["lake"], 1.0),
                ("ir", 0.0, ["tower"], 1.0),
                ("eo", 20.0, ["lake"], 0.6),
            ],
            window=10.0,
            step=10.0,
        )
        rows = run_scenario(scenario)
        clash = rows[0]
        assert clash.status is DecisionStatus.CONFLICTED
        assert clash.reason == HIGH_CONFLICT
        assert clash.cumulative_conflict == 1.0
        assert all(tuple(iv) in ((0.0, 1.0),) for _, iv in clash.intervals)
        # the run survives to the later, quieter step
        assert rows[-1].status is DecisionStatus.DECIDED

    def test_discounting_ages_reports(self):
        scenario = scenario_from(
            ["lake", "tower"],
            [("eo", 0.0, ["lake"], 0.6), ("eo", 2.0, ["lake"], 0.0)],
            window=10.0,
            step=2.0,
            discount_rate=0.5,
        )
        rows = run_scenario(scenario)
        # by t=2 the 0.6 report has decayed by 0.5**2
        assert dict(rows[-1].intervals)["lake"].support == pytest.approx(
            0.6 * 0.25, abs=1e-12
        )

    def test_empty_scenario_has_no_rows(self):
        scenario = Scenario(frame=Frame(["lake"]), reports=())
        assert run_scenario(scenario) == []

    def test_rerun_is_identical(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first == second
        assert emit_trace(first) == emit_trace(second)

    def test_tie_on_time_folds_by_sensor_id(self):
        frame = Frame(["lake", "tower"])
        reports = [
            SensorReport("zeta", 0.0, frame.proposition(["lake"]), 0.6),
            SensorReport("alpha", 0.0, frame.proposition(["tower"]), 0.4),
        ]
        assert (
            Scenario(frame=frame, reports=tuple(reports)).reports[0].sensor_id
            == "alpha"
        )

    def test_final_row_matches_one_shot_combination(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        wide = dataclasses.replace(scenario, window=1000.0)
        rows = run_scenario(wide)
        one_shot = combine_all(
            [
                simple_support(wide.frame, r.focus, r.degree)
                for r in wide.reports
            ]
        )
        final = dict(rows[-1].intervals)
        for atom in wide.frame.atoms:
            interval = one_shot.result.interval(wide.frame.singleton(atom))
            assert final[atom] == interval
        assert rows[-1].cumulative_conflict == one_shot.conflict

    def test_cumulative_conflict_grows_with_more_reports(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        masses = [
            simple_support(scenario.frame, r.focus, r.degree)
            for r in scenario.reports
        ]
        conflicts = [
            combine_all(masses[: k + 1]).conflict for k in range(len(masses))
        ]
        assert all(a <= b + 1e-15 for a, b in zip(conflicts, conflicts[1:]))

    @given(st.data())
    def test_shrinking_window_never_adds_evidence(self, data):
        times = sorted(
            data.draw(
                st.lists(
                    st.floats(0, 30, allow_nan=False), min_size=1, max_size=6
                )
            )
        )
        wide_window = data.draw(st.floats(2.0, 20.0, allow_nan=False))
        narrow_window = data.draw(st.floats(0.5, wide_window, allow_nan=False))
        reports = [("eo", t, ["lake"], 0.5) for t in times]
        wide_rows = run_scenario(
            scenario_from(["lake", "tower"], reports, window=wide_window, step=3.0)
        )
        narrow_rows = run_scenario(
            scenario_from(["lake", "tower"], reports, window=narrow_window, step=3.0)
        )
        for wide_row, narrow_row in zip(wide_rows, narrow_rows):
            # agreeing equal-degree reports: belief only grows with count,
            # so a narrower window can never show more support
            assert (
                dict(narrow_row.intervals)["lake"].support
                <= dict(wide_row.intervals)["lake"].support + 1e-12
            )


def replay_reference(scenario: Scenario):
    """(time, CombinationReport or None on total conflict) per grid step.

    Each step scans every report for its window and folds the in-window
    supports afresh, discounted by age, with no state kept between steps.
    """
    frame = scenario.frame
    t0, t_end = scenario.reports[0].time, scenario.reports[-1].time
    out = []
    k = 0
    t = t0
    rate = scenario.discount_rate
    while t <= t_end + 1e-9:
        supports = [
            simple_support(frame, r.focus, rate ** max(t - r.time, 0.0) * r.degree)
            for r in scenario.reports
            if in_window(scenario, t, r.time)
        ]
        if not supports:
            supports = [vacuous(frame)]
        try:
            out.append((t, combine_all(supports)))
        except TotalConflict:
            out.append((t, None))
        k += 1
        t = t0 + k * scenario.step
    return out


def in_window(scenario: Scenario, t: float, time: float) -> bool:
    """Whether a report at ``time`` is in the window at grid time ``t``.

    It is in at t and out at t - window, each within the grid's slack of
    1e-9; within the slack of t it is in however narrow the window.
    """
    return t - scenario.window + 1e-9 < time <= t + 1e-9 or abs(time - t) <= 1e-9


def near_decision_margin(intervals: dict, conflict: float, threshold: float) -> bool:
    """Whether rounding could move the row across a boundary of the decision rule."""
    tol = 1e-9
    ranked = sorted(intervals.items(), key=lambda kv: -kv[1].support)
    best = ranked[0][1]
    gap = best.support - ranked[1][1].support
    dominance = best.support - max(iv.plausibility for _, iv in ranked[1:])
    return (
        abs(conflict - threshold) <= tol
        or TIE_TOL / 100 < gap <= tol
        or abs(dominance) <= tol
    )


@st.composite
def report_streams(draw):
    """Replays on a coarse time grid, so equal times, gaps and edges all occur.

    Degrees are multiples of 0.05; some streams carry two certain reports on
    disjoint atoms, a total conflict that enters and leaves the window.
    """
    frame = Frame(ATOM_POOL[: draw(st.integers(2, 4))])
    full = (1 << len(frame)) - 1
    count = draw(st.integers(1, 12))
    stream = [
        (
            draw(st.sampled_from(("eo", "ir", "radar"))),
            draw(st.integers(0, 24)) / 2,
            frame.from_bits(draw(st.integers(1, full))),
            draw(st.integers(0, 20)) / 20,
        )
        for _ in range(count)
    ]
    if draw(st.booleans()):
        t = draw(st.integers(0, 24)) / 2
        stream.append(("eo", t, frame.singleton(frame.atoms[0]), 1.0))
        stream.append(("ir", t, frame.singleton(frame.atoms[1]), 1.0))
    stream.sort(key=lambda r: r[1])
    return Scenario(
        frame=frame,
        reports=tuple(SensorReport(*r) for r in stream),
        window=draw(st.sampled_from((0.25, 0.5, 1.0, 2.5, 4.0, 10.0))),
        step=draw(st.sampled_from((0.5, 1.0, 1.5, 3.0))),
        discount_rate=draw(st.sampled_from((1.0, 0.99, 0.9, 0.5, 0.0))),
        conflict_threshold=draw(st.sampled_from((0.5, 0.95, 1.0))),
    )


def _clash_then_calm() -> Scenario:
    reports = [("eo", 0.0, ["lake"], 1.0), ("ir", 0.0, ["tower"], 1.0)]
    reports += [
        ("radar", k / 2, [("lake", "ridge", "tower")[k % 3]], 0.35) for k in range(1, 17)
    ]
    return scenario_from(["lake", "tower", "ridge"], reports, window=3.0, step=0.5)


def assert_matches_reference(scenario: Scenario) -> None:
    """The replay equals the stateless per-step refold within 1e-12.

    Statuses must be equal away from the margins of the decision rule.
    """
    rows = run_scenario(scenario)
    expected = replay_reference(scenario)
    assert [row.time for row in rows] == [t for t, _ in expected]
    frame = scenario.frame
    for row, (_, report) in zip(rows, expected):
        if report is None:
            assert row.status is DecisionStatus.CONFLICTED
            assert row.reason == HIGH_CONFLICT
            assert row.cumulative_conflict == 1.0
            continue
        want = {atom: report.result.interval(frame.singleton(atom)) for atom in frame.atoms}
        got = dict(row.intervals)
        for atom in frame.atoms:
            assert abs(got[atom].support - want[atom].support) <= 1e-12
            assert abs(got[atom].plausibility - want[atom].plausibility) <= 1e-12
        assert abs(row.cumulative_conflict - report.conflict) <= 1e-12
        if not near_decision_margin(want, report.conflict, scenario.conflict_threshold):
            decision = decide(report, scenario.conflict_threshold)
            assert (row.status, row.reason, row.hypothesis) == (
                decision.status,
                decision.reason,
                decision.hypothesis,
            )


def aged_stream(seed, atoms, count, interval, window, rate, step=1.0, focus=None):
    """A seeded stream of ``count`` reports ``interval`` apart on ``atoms`` atoms.

    ``focus(rng, frame, i)`` picks report i's focus, by default one to three
    random atoms. Degrees are multiples of 0.05 up to 0.6.
    """
    rng = random.Random(seed)
    frame = Frame([f"a{i:02d}" for i in range(atoms)])
    focus = focus or _one_to_three_atoms
    reports = tuple(
        SensorReport(
            f"s{rng.randrange(5)}", i * interval, focus(rng, frame, i), rng.randint(1, 12) / 20
        )
        for i in range(count)
    )
    return Scenario(frame, reports, window=window, step=step, discount_rate=rate)


def _one_to_three_atoms(rng, frame, i):
    return frame.proposition(rng.sample(frame.atoms, rng.randint(1, 3)))


def _on_bit_63(rng, frame, i):
    atoms = rng.sample(frame.atoms[:63], rng.randint(0, 2))
    return frame.proposition(atoms + ["a63"] if rng.random() < 0.7 or not atoms else atoms)


def _whole_frame_every_fourth(rng, frame, i):
    return frame.full() if i % 4 == 0 else _one_to_three_atoms(rng, frame, i)


def _certain_clash_mid_window() -> Scenario:
    # three reports at t=6: the first two are certain on disjoint atoms, so
    # the fold is contradicted mid-window and the third must not revive it;
    # at later steps the pair has aged below certainty, and then left. At
    # t=9 the clash is short of certain by 1e-13: a product of 1e-13 still
    # lands on {lake}, so that window fuses, with conflict just below 1.
    atoms = ["lake", "tower", "ridge"]
    reports = [("eo", k / 2, [atoms[2 * (k % 2)]], 0.35) for k in range(12)]
    reports += [("c1", 6.0, ["lake"], 1.0), ("c2", 6.0, ["tower"], 1.0)]
    reports += [("c3", 6.0, ["lake"], 0.5)]
    reports += [("d1", 9.0, ["lake"], 1.0), ("d2", 9.0, ["tower"], 1.0 - 1e-13)]
    reports += [
        ("ir", 6 + k / 2, [("tower", "lake", "ridge")[k % 3]], 1.0 if k == 3 else 0.4)
        for k in range(1, 16)
    ]
    reports.sort(key=lambda r: r[1])
    return scenario_from(atoms, reports, window=4.0, step=0.5, discount_rate=0.5)


AGED_CASES = {
    "window-of-120-rate-0": lambda: aged_stream(1, 4, 240, 0.1, 12.0, 0.0),
    "window-of-120-rate-0.5": lambda: aged_stream(2, 4, 240, 0.1, 12.0, 0.5),
    "window-of-120-rate-0.99": lambda: aged_stream(3, 4, 240, 0.1, 12.0, 0.99),
    "64-atoms-foci-on-bit-63": lambda: aged_stream(
        4, 64, 160, 0.5, 10.0, 0.9, focus=_on_bit_63
    ),
    "whole-frame-focus": lambda: aged_stream(
        5, 3, 80, 0.5, 8.0, 0.9, focus=_whole_frame_every_fourth
    ),
    "certain-clash-mid-window": _certain_clash_mid_window,
    "grid-across-block-seams": lambda: aged_stream(6, 4, 400, 0.5, 5.0, 0.9, step=0.5),
}


def pair_capped_rounds(scenario: Scenario, cap: int, monkeypatch):
    """The lockstep rounds of a replay, uncapped and then under a pair cap of
    ``cap``, whose traces must be equal. A round is (chains, its pairs at two
    a row plus the rows of the sums held, whether only the chains of the first
    waiting step fold)."""
    calls, head = [], []
    advance = scenario_module._Lockstep.advance
    sum_supports = scenario_module._sum_supports

    def spy_advance(lockstep, parts):
        head[:] = [lockstep, [chain for chain, _ in parts]]
        return advance(lockstep, parts)

    def spy(step, bits, masses, focus, degree, *rest):
        lockstep, mine = head
        alone = all(chain in mine for chain in lockstep.folding)
        calls.append((degree.shape[0], 2 * step.shape[0] + lockstep.held, alone))
        return sum_supports(step, bits, masses, focus, degree, *rest)

    monkeypatch.setattr(scenario_module._Lockstep, "advance", spy_advance)
    monkeypatch.setattr(scenario_module, "_sum_supports", spy)
    want = emit_trace(run_scenario(scenario))
    uncapped = calls[:]
    calls.clear()
    monkeypatch.setattr(combine_module, "MAX_PAIRS", cap)
    assert emit_trace(run_scenario(scenario)) == want
    return uncapped, calls


def assert_waves_end_at_the_cap(scenario: Scenario, cap: int, monkeypatch) -> None:
    """Under a pair cap of ``cap`` a round that passes it folds only the first
    waiting step's chains, though uncapped rounds pass it; other rounds fold
    more than one chain at a time, so no wave splits into its chains."""
    uncapped, capped = pair_capped_rounds(scenario, cap, monkeypatch)
    assert max(size for _, size, _ in uncapped) > cap
    assert all(size <= cap or alone for _, size, alone in capped)
    assert len(capped) > len(uncapped)
    assert max(chains for chains, size, _ in capped if size <= cap) > 1


def probe_stream(n_atoms: int, width: int) -> Scenario:
    """``width`` reports 1 s apart, report i on the frame less atom i mod
    ``n_atoms``, then ``width`` on the whole frame, in a ``width``-s window at
    rate 0.99: once a window holds ``n_atoms`` of the first reports, its sum
    holds every non-empty subset of the frame."""
    rng = random.Random(5)
    frame = Frame([f"a{i:02d}" for i in range(n_atoms)])
    full = (1 << n_atoms) - 1
    reports = tuple(
        SensorReport(
            "s", float(i), frame.from_bits(full ^ (1 << i % n_atoms) if i < width else full),
            rng.uniform(0.3, 0.6),
        )
        for i in range(2 * width)
    )
    return Scenario(frame, reports, window=float(width), step=1.0, discount_rate=0.99)


def _repeating_stream(steps: int, rate: float) -> Scenario:
    """A 0.5-s stream on 16 atoms that repeats one focus per report of its
    40-report window, so every full window holds the same evidence."""
    frame = Frame([f"a{i:02d}" for i in range(16)])
    rng = random.Random(0)
    foci = [
        frame.from_bits(
            (rng.random() < 0.8) | sum(1 << a for a in rng.sample(range(1, 16), rng.randint(1, 4)))
        )
        for _ in range(40)
    ]
    reports = tuple(
        SensorReport(f"s{i % 10}", i * 0.5, foci[i % 40], 0.05 + 0.05 * (i % 11))
        for i in range(2 * steps - 1)
    )
    return Scenario(frame, reports, window=20.0, step=1.0, discount_rate=rate)


def _peak_above_rows(scenario: Scenario) -> int:
    """Bytes a replay holds at its peak besides its rows, which grow with the
    grid by construction (tracemalloc)."""
    tracemalloc.start()
    try:
        rows = run_scenario(scenario)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == round(scenario.reports[-1].time) + 1
    return peak - current


class TestReplayProperties:
    @given(report_streams())
    @example(_clash_then_calm())
    def test_incremental_matches_per_step_recompute(self, scenario):
        assert_matches_reference(scenario)

    @pytest.mark.parametrize("make", AGED_CASES.values(), ids=AGED_CASES.keys())
    def test_aged_replay_matches_per_step_recompute(self, make):
        assert_matches_reference(make())

    def test_aged_cases_cover_what_they_name(self):
        long_window = AGED_CASES["window-of-120-rate-0.5"]()
        times = [r.time for r in long_window.reports]
        assert max(bisect_right(times, t) - bisect_right(times, t - 12.0) for t in times) >= 100
        wide = AGED_CASES["64-atoms-foci-on-bit-63"]()
        assert any(r.focus.bits >> 63 for r in wide.reports)
        seams = AGED_CASES["grid-across-block-seams"]()
        assert len(run_scenario(seams)) > 3 * scenario_module._BLOCK_STEPS
        clash = {row.time: row for row in run_scenario(_certain_clash_mid_window())}
        conflicts = [row.cumulative_conflict for row in clash.values()]
        assert conflicts.count(1.0) == 1 and conflicts[-1] < 1.0
        contradicted, short_of_certain = clash[6.0], clash[9.0]
        assert contradicted.cumulative_conflict == 1.0
        assert {iv for _, iv in contradicted.intervals} == {EvidentialInterval(0.0, 1.0)}
        assert 1.0 - 1e-12 < short_of_certain.cumulative_conflict < 1.0
        assert dict(short_of_certain.intervals)["lake"] == EvidentialInterval(1.0, 1.0)
        assert (short_of_certain.status, short_of_certain.reason) == (
            DecisionStatus.CONFLICTED,
            HIGH_CONFLICT,
        )

    def test_aged_replay_builds_no_supports_and_no_pairwise_sums(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the aged replay folds in lockstep")

        scenario = AGED_CASES["grid-across-block-seams"]()
        want = emit_trace(run_scenario(scenario))
        monkeypatch.setattr(masses_module, "simple_support", refuse)
        monkeypatch.setattr(combine_module, "combine", refuse)
        monkeypatch.setattr(scenario_module, "_sum", refuse)
        assert emit_trace(run_scenario(scenario)) == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda: aged_stream(7, 6, 300, 0.37, 9.0, 0.99, step=0.7),
            lambda: load_scenario(
                gen.dumps(gen.replay_scenario(random.Random("replay-aged:1"), discount_rate=0.99))
            ),
        ],
        ids=["fractional-ages", "benchmark-seed-1"],
    )
    def test_aged_degrees_are_pythons_float_power(self, make, monkeypatch):
        # NumPy's vectorised ``**`` can be off Python's by an ulp, which the
        # reference tests' 1e-12 would not see: every degree the lockstep
        # sums must be Python's float, bit for bit. A report up to the grid's
        # slack after t (as 210 * 0.37 is after 111 * 0.7) has age 0
        scenario = make()
        rounds = []
        supports = scenario_module._Lockstep.supports
        sum_supports = scenario_module._sum_supports

        def spy_supports(lockstep, chains, j):
            focus, degree = supports(lockstep, chains, j)
            # each chain's time and the report it sums in round j
            rounds.append(([(c.t, c.first + c.sign * (c.length + j)) for c in chains], degree))
            return focus, degree

        def spy_sum(step, bits, masses, focus, degree, *rest):
            assert degree is rounds[-1][1]
            return sum_supports(step, bits, masses, focus, degree, *rest)

        monkeypatch.setattr(scenario_module._Lockstep, "supports", spy_supports)
        monkeypatch.setattr(scenario_module, "_sum_supports", spy_sum)
        run_scenario(scenario)
        rate, checked = scenario.discount_rate, 0
        for chains, degree in rounds:
            picked = [(t, scenario.reports[i]) for t, i in chains]
            want = [rate ** max(t - r.time, 0.0) * r.degree for t, r in picked]
            assert [d.hex() for d in degree.tolist()] == [w.hex() for w in want]
            checked += len(want)
        assert checked > 3000

    def test_a_wave_over_the_pair_cap_ends_at_the_chains_that_fit(self, monkeypatch):
        # above any one sum of a 4-atom fold (15 by 2 focals), below a wave's
        assert_waves_end_at_the_cap(AGED_CASES["grid-across-block-seams"](), 64, monkeypatch)

    def test_a_wave_holds_one_capped_round_not_every_chain(self, monkeypatch):
        # 80 steps of 12-atom windows of up to 4 095 focals, each a chain of
        # its own, under a cap of four such chains: a wave that held every
        # chain's rows, as one that sums an over-cap round a chain at a time
        # and joins the results, peaks at about 10 times one capped round
        cap = 1 << 15
        monkeypatch.setattr(combine_module, "MAX_PAIRS", cap)
        full = (1 << 12) - 1
        step = np.repeat(np.arange(4, dtype=np.int16), full)
        bits = np.tile(np.arange(1, full + 1, dtype=np.uint64), 4)
        assert 2 * bits.shape[0] <= cap
        tracemalloc.start()
        try:
            combine_module._sum_supports(
                step, bits, np.full(bits.shape[0], 1 / full), np.full(4, full ^ 1, np.uint64),
                np.full(4, 0.5), 12,
            )
            one_round = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _peak_above_rows(probe_stream(12, 40)) <= 3 * one_round

    def test_benchmark_replays_fold_in_waves_of_many_chains(self, monkeypatch):
        # seed 1's aged replay: 200 steps, each a chain of its own, in two
        # waves of up to 2 * _BLOCK_STEPS chains and 40 rounds each; its rate-1
        # twin takes 40 rounds in all
        calls = []
        sum_supports = scenario_module._sum_supports

        def spy(*args):
            calls.append(1)
            return sum_supports(*args)

        monkeypatch.setattr(scenario_module, "_sum_supports", spy)
        run_scenario(_aged_seed(1))
        assert len(calls) <= 80
        calls.clear()
        run_scenario(_fresh_seed(1))
        assert len(calls) == 40

    def test_aged_memory_is_flat_in_grid_length(self):
        short, long = _repeating_stream(200, 0.99), _repeating_stream(2000, 0.99)
        run_scenario(short)
        assert _peak_above_rows(long) <= 1.25 * _peak_above_rows(short)

    def test_fresh_memory_holds_a_block_of_focals_not_of_steps(self, monkeypatch):
        # foci that each miss a different one of 64 atoms, 12 to a window:
        # every full window sums to 2**12 focals, so 64 steps of them would
        # hold 2**18 at once
        frame = Frame(WIDE_ATOMS)
        full = (1 << 64) - 1
        reports = tuple(
            SensorReport(f"s{i:02d}", float(i), frame.from_bits(full ^ (1 << (i % 64))), 0.3)
            for i in range(80)
        )
        scenario = Scenario(frame, reports, window=12.0, step=1.0)

        def peak_above_rows():
            tracemalloc.start()
            try:
                rows = run_scenario(scenario)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rows) == 80
            return peak - current

        blocked = peak_above_rows()
        monkeypatch.setattr(scenario_module, "_BLOCK_STEPS", 1)
        one_at_a_time = peak_above_rows()
        # what a block adds over deciding each window alone is bounded by its
        # focal budget, at 64 bytes a focal, however many steps it spans
        assert blocked <= one_at_a_time + 64 * scenario_module._BLOCK_FOCALS

    @given(st.data())
    def test_valid_input_never_raises(self, data):
        frame = Frame(ATOM_POOL[: data.draw(st.integers(1, 5))])
        full = (1 << len(frame)) - 1
        times = sorted(
            data.draw(st.lists(st.floats(0, 20), min_size=1, max_size=12))
        )
        reports = tuple(
            SensorReport(
                data.draw(st.sampled_from(("eo", "ir"))),
                t,
                frame.from_bits(data.draw(st.integers(1, full))),
                data.draw(st.floats(0, 1)),
            )
            for t in times
        )
        scenario = Scenario(
            frame=frame,
            reports=reports,
            window=data.draw(st.floats(0.01, 30)),
            step=data.draw(st.floats(0.25, 10)),
            discount_rate=data.draw(st.floats(0, 1)),
            conflict_threshold=data.draw(st.floats(0, 1, exclude_min=True)),
        )
        rows = run_scenario(scenario)
        assert len(rows) == len(replay_reference(scenario))
        for row in rows:
            assert 0.0 <= row.cumulative_conflict <= 1.0
            for _, interval in row.intervals:
                assert 0.0 <= interval.support <= interval.plausibility <= 1.0

    def test_grid_length_is_bounded(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "MAX_GRID_STEPS", 3)
        reports = [("eo", 0.0, ["lake"], 0.5), ("eo", 2.0, ["lake"], 0.5)]
        assert len(run_scenario(scenario_from(["lake"], reports))) == 3
        reports[-1] = ("eo", 3.0, ["lake"], 0.5)
        with pytest.raises(InvalidWindow):
            run_scenario(scenario_from(["lake"], reports))

    def test_grid_that_cannot_advance_has_one_row(self):
        # 1e300 + k * 1.0 == 1e300 for every k: one distinct time, one row
        reports = [("eo", 1e300, ["lake"], 0.5), ("ir", 1e300, ["lake"], 0.5)]
        (row,) = run_scenario(scenario_from(["lake", "tower"], reports))
        assert row.time == 1e300
        assert dict(row.intervals)["lake"] == EvidentialInterval(0.75, 1.0)
        # a grid that advances, if only within the slack, keeps every row
        single = [("eo", 1e3, ["lake"], 0.5)]
        assert len(run_scenario(scenario_from(["lake"], single, step=5e-14))) == 20001


def _halves_on_disjoint_atoms() -> Scenario:
    # twenty near-certain reports on lake, then twenty on tower. Once the
    # window slides, the two stacks sum a front of lakes with a back of
    # towers, a conflict within 1e-17 of total that still leaves mass on both
    frame_atoms = ["lake", "tower", "ridge"]
    reports = [("eo", k / 2, ["lake"], 0.99) for k in range(20)]
    reports += [("ir", 10.5 + k / 2, ["tower"], 0.99) for k in range(20)]
    return scenario_from(frame_atoms, reports, window=10.0, step=1.0)


def _seeded_replay(seed: int, reports: int, window: float) -> Scenario:
    doc = gen.replay_scenario(
        random.Random(seed), atoms=16, reports=reports, window=window, discount_rate=1.0
    )
    return load_scenario(json.dumps(doc))


def window_supports(scenario: Scenario, t: float) -> list[dict]:
    """Focal maps of the supports in the window at ``t``, aged as the replay ages them."""
    frame, rate = scenario.frame, scenario.discount_rate
    return [
        focal_map(simple_support(frame, r.focus, rate ** max(t - r.time, 0.0) * r.degree))
        for r in scenario.reports
        if in_window(scenario, t, r.time)
    ]


@st.composite
def deep_conflict_streams(draw, rate: float):
    """Windows of 200 reports that take turns over 2 to 4 atoms at degrees of
    0.6 to 0.95, so that the mass a full window retains is below 1e-30.

    On four atoms a report may also back the atom two places on. The stream
    outlasts the window, so at rate 1 the two stacks sum fronts with backs.
    """
    frame = Frame(ATOM_POOL[: draw(st.integers(2, 4))])
    n = len(frame)
    reports = []
    for i in range(draw(st.integers(200, 260))):
        focus = [frame.atoms[i % n]]
        if n == 4 and draw(st.booleans()):
            focus.append(frame.atoms[(i + 2) % n])
        degree = draw(st.integers(12, 19)) / 20
        reports.append(
            SensorReport(f"s{i % 3}", i / 10, frame.proposition(focus), degree)
        )
    return Scenario(frame, tuple(reports), window=20.0, step=1.0, discount_rate=rate)


# roundings a replay row may be off the fold normalised once, per report in
# its window: the replay rescales after every sum, which adds a rounding or
# two to each mass, and the oracle's products and its one division add as many
ROUNDINGS_PER_REPORT = 4


class TestFoldGrouping:
    """A window's sum does not depend on how its fold is grouped.

    At rate 1 the two stacks sum a window as a front of suffix sums and a
    back, while the aged replay and ``combine_all`` fold it left to right.
    The orthogonal sum drops only products that are exactly 0.0 and calls
    only a sum with no surviving product total conflict, so both groupings
    give the exact sum to rounding, however close to 1 the conflict.
    """

    @pytest.mark.parametrize(
        "make",
        [_halves_on_disjoint_atoms, lambda: _seeded_replay(10, reports=240, window=100.0)],
        ids=["halves-on-disjoint-atoms", "replay-seed-10-window-100"],
    )
    def test_rate_one_trace_equals_the_left_fold_trace(self, make, monkeypatch):
        scenario = make()
        two_stacks = emit_trace(run_scenario(scenario))

        def split_at_low_end(scenario, steps):
            # each window a back alone: the left fold of its reports
            bounds = scenario_module._window_bounds(scenario, steps)
            return ((t, lo, lo, hi) for t, lo, hi in bounds)

        monkeypatch.setattr(scenario_module, "_splits", split_at_low_end)
        assert emit_trace(run_scenario(scenario)) == two_stacks

    def test_near_total_conflict_window_is_the_exact_sum(self):
        # at t=15 the window holds nine lakes and ten towers: the exact sum
        # puts 1e-20 on lake and 1e-18 on tower, before normalising
        scenario = _halves_on_disjoint_atoms()
        row = next(row for row in run_scenario(scenario) if row.time == 15.0)
        exact = [
            {h: Fraction(v) for h, v in m.items()} for m in window_supports(scenario, 15.0)
        ]
        products = fold_products(exact)
        retained = sum(products.values())
        for atom, interval in row.intervals:
            want = float(products.get(frozenset({atom}), 0) / retained)
            assert interval.support == pytest.approx(want, abs=1e-15)
            assert interval.plausibility == pytest.approx(want, abs=1e-15)
        assert float(retained) < 1e-17 and row.cumulative_conflict == 1.0
        # so tower's share is 1e-18 / (1e-18 + 1e-20)
        assert dict(row.intervals)["tower"].support == pytest.approx(100 / 101, abs=1e-12)

    @pytest.mark.parametrize("rate", [1.0, 0.99])
    # not shrunk: each example replays windows of 200 reports against the
    # oracle, so shrinking a failure took minutes; it is reported as drawn
    @settings(max_examples=10, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(data=st.data())
    def test_deep_conflict_windows_match_the_fold_normalised_once(self, rate, data):
        scenario = data.draw(deep_conflict_streams(rate))
        least_retained = 1.0
        for row in run_scenario(scenario):
            supports = window_supports(scenario, row.time)
            products = fold_products(supports)
            retained = math.fsum(products.values())
            least_retained = min(least_retained, retained)
            want = {h: v / retained for h, v in products.items()}
            bound = ROUNDINGS_PER_REPORT * len(supports) * sys.float_info.epsilon
            for atom, interval in row.intervals:
                singleton = frozenset({atom})
                assert abs(interval.support - bel_oracle(want, singleton)) <= bound
                assert abs(interval.plausibility - pl_oracle(want, singleton)) <= bound
            assert abs(row.cumulative_conflict - (1.0 - retained)) <= bound
        assert least_retained < 1e-30


def _aggregate_hex(aggregate):
    """A window aggregate with every float as hex, so equality is bit for bit."""
    if aggregate is None:
        return None
    mass, retained = aggregate
    if mass is None:
        return "contradicted", retained.hex()
    return mass._bits.tolist(), [m.hex() for m in mass._masses.tolist()], retained.hex()


def assert_matches_two_stacks(scenario: Scenario) -> None:
    """The rate-1 lockstep's window sums equal the pairwise two stacks' bit for bit."""
    steps = scenario_module._grid_steps(scenario)
    got = list(scenario_module._windows(scenario, steps))
    want = list(two_stacks_windows(scenario, scenario_module._window_bounds(scenario, steps)))
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [_aggregate_hex(a) for _, a in got] == [_aggregate_hex(a) for _, a in want]


def _fresh_seed(seed: int, window: float = 20.0) -> Scenario:
    rng = random.Random(f"replay-fresh:{seed}")
    return load_scenario(gen.dumps(gen.replay_scenario(rng, discount_rate=1.0, window=window)))


def _gaps_wider_than_the_window() -> Scenario:
    reports = [("eo", 0.5 * k, [("lake", "tower")[k % 2]], 0.1 + 0.05 * k) for k in range(12)]
    reports += [("ir", 40 + 0.5 * k, ["ridge"], 0.3) for k in range(6)]
    reports += [("radar", 90.0, ["lake", "ridge"], 0.6)]
    return scenario_from(["lake", "tower", "ridge"], reports, window=3.0, step=1.0)


def _every_report_at_one_time() -> Scenario:
    atoms = ["lake", "tower", "ridge", "clear"]
    reports = [
        (f"s{k:02d}", 7.0, [atoms[k % 4], atoms[(k + 1) % 4]], (k % 21) / 20)
        for k in range(30)
    ]
    return scenario_from(atoms, reports, window=5.0, step=1.0)


FRESH_CASES = {
    "lake-tower": lambda: load_scenario((DATA / "lake_tower.json").read_text()),
    "lake-tower-window-spanning-the-stream": lambda: dataclasses.replace(
        load_scenario((DATA / "lake_tower.json").read_text()), window=1000.0
    ),
    "gaps-wider-than-the-window": _gaps_wider_than_the_window,
    "every-report-at-one-time": _every_report_at_one_time,
    "window-narrower-than-the-step": lambda: aged_stream(8, 5, 120, 0.25, 0.3, 1.0),
    "window-spanning-the-stream": lambda: _fresh_seed(1, window=1000.0),
    "whole-frame-foci": lambda: aged_stream(
        5, 3, 80, 0.5, 8.0, 1.0, focus=_whole_frame_every_fourth
    ),
    "64-atoms-foci-on-bit-63": lambda: aged_stream(4, 64, 160, 0.5, 10.0, 1.0, focus=_on_bit_63),
    "halves-on-disjoint-atoms": _halves_on_disjoint_atoms,
}


def assert_aged_matches_pairwise_fold(scenario: Scenario) -> None:
    """The aged lockstep's window sums equal the pairwise left fold's bit for bit."""
    steps = scenario_module._grid_steps(scenario)
    got = list(scenario_module._windows(scenario, steps))
    want = list(left_fold_windows(scenario, scenario_module._window_bounds(scenario, steps)))
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [_aggregate_hex(a) for _, a in got] == [_aggregate_hex(a) for _, a in want]


def _aged_seed(seed: int, rate: float = 0.99) -> Scenario:
    rng = random.Random(f"replay-aged:{seed}")
    return load_scenario(gen.dumps(gen.replay_scenario(rng, discount_rate=rate)))


class TestAgedLockstep:
    """Below rate 1 each step folds its window in lockstep with the others, and
    each window is the pairwise left fold from the vacuous aggregate, bit for
    bit. ``combine_all`` is not that reference: it reports the conflict
    1 - retained, from which the retained mass does not come back bit for bit."""

    @pytest.mark.parametrize("make", AGED_CASES.values(), ids=AGED_CASES.keys())
    def test_named_streams_match_the_pairwise_left_fold(self, make):
        assert_aged_matches_pairwise_fold(make())

    @pytest.mark.parametrize("rate", [0.99, 0.9])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_benchmark_streams_match_the_pairwise_left_fold(self, seed, rate):
        assert_aged_matches_pairwise_fold(_aged_seed(seed, rate))


class TestRateOneLockstep:
    """At rate 1 the chains of the two stacks fold in lockstep, and each window
    is the pairwise two stacks' sum, bit for bit."""

    @pytest.mark.parametrize("make", FRESH_CASES.values(), ids=FRESH_CASES.keys())
    def test_named_streams_match_the_pairwise_two_stacks(self, make):
        assert_matches_two_stacks(make())

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_benchmark_streams_match_the_pairwise_two_stacks(self, seed):
        assert_matches_two_stacks(_fresh_seed(seed))

    @settings(max_examples=60, deadline=None)
    @given(report_streams())
    def test_drawn_streams_match_the_pairwise_two_stacks(self, scenario):
        assert_matches_two_stacks(dataclasses.replace(scenario, discount_rate=1.0))

    def test_named_streams_cover_what_they_name(self):
        spanning = FRESH_CASES["window-spanning-the-stream"]()
        steps = scenario_module._grid_steps(spanning)
        splits = list(scenario_module._splits(spanning, steps))
        # every window starts at the first report, so nothing ever leaves
        assert {(lo, b) for _, lo, b, _ in splits} == {(0, 0)} and splits[-1][3] > 390
        narrow = FRESH_CASES["window-narrower-than-the-step"]()
        assert narrow.window < narrow.step
        gaps = [
            hi for _, lo, _, hi in scenario_module._splits(
                FRESH_CASES["gaps-wider-than-the-window"](), 91
            ) if lo == hi
        ]
        assert gaps
        one_time = FRESH_CASES["every-report-at-one-time"]()
        assert len({r.time for r in one_time.reports}) == 1
        assert any(r.degree in (0.0, 1.0) for r in one_time.reports)
        seeded = _fresh_seed(1)
        flips = {b for _, _, b, _ in scenario_module._splits(seeded, 200)}
        assert len(flips) > 5

    def test_calls_no_simple_support_and_one_pairwise_sum_per_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the rate-1 replay builds no supports")

        scenario = _fresh_seed(2)
        want = emit_trace(run_scenario(scenario))
        sums = []
        pairwise = scenario_module._sum

        def spy(a, b):
            sums.append(1)
            return pairwise(a, b)

        monkeypatch.setattr(masses_module, "simple_support", refuse)
        monkeypatch.setattr(combine_module, "combine", refuse)
        monkeypatch.setattr(scenario_module, "_sum", spy)
        rows = run_scenario(scenario)
        assert emit_trace(rows) == want
        assert 0 < len(sums) <= len(rows)

    def test_a_round_over_the_pair_cap_keeps_the_chains_that_fit(self, monkeypatch):
        scenario = aged_stream(6, 4, 400, 0.5, 5.0, 1.0, step=0.5)
        # no one sum on 4 atoms pairs more (15 by 15 focals), but a round of
        # many chains and the sums held do
        assert_waves_end_at_the_cap(scenario, 225, monkeypatch)

    def test_waves_cut_short_by_the_pair_cap_keep_the_bits(self, monkeypatch):
        # past the cap a wave ends at the chains that fit, and the others go
        # on later from their longest sums kept; at rate 1 the cap must hold
        # a step's pairwise sum of front and back
        monkeypatch.setattr(combine_module, "MAX_PAIRS", 225)
        assert_matches_two_stacks(aged_stream(6, 4, 400, 0.5, 5.0, 1.0, step=0.5))
        monkeypatch.setattr(combine_module, "MAX_PAIRS", 64)
        assert_aged_matches_pairwise_fold(AGED_CASES["grid-across-block-seams"]())

    @pytest.mark.parametrize("budget", [20, 200])
    def test_waves_cut_short_by_the_focal_budget_keep_the_bits(self, budget, monkeypatch):
        # past the budget a wave of other chains than the first waiting
        # step's ends, and they go on later from their longest sums kept
        monkeypatch.setattr(scenario_module, "_BLOCK_FOCALS", budget)
        for make in (FRESH_CASES["halves-on-disjoint-atoms"], lambda: _fresh_seed(3)):
            assert_matches_two_stacks(make())
        assert_aged_matches_pairwise_fold(AGED_CASES["whole-frame-focus"]())

    def test_a_long_gap_is_not_read_ahead(self):
        # 20 000 empty windows after a report: none of them waits for a fold,
        # so none is held while the next is read
        reports = [("eo", 0.0, ["lake"], 0.5), ("ir", 2000.0, ["tower"], 0.5)]
        scenario = scenario_from(["lake", "tower"], reports, window=1.0, step=0.1)
        steps = scenario_module._grid_steps(scenario)
        tracemalloc.start()
        try:
            assert sum(1 for _ in scenario_module._windows(scenario, steps)) == steps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps > 20_000 and peak < 64 * 1024

    def test_memory_is_flat_in_grid_length(self):
        # the two stacks flip every 20 steps of this stream
        short, long = _repeating_stream(200, 1.0), _repeating_stream(2000, 1.0)
        run_scenario(short)
        assert _peak_above_rows(long) <= 1.25 * _peak_above_rows(short)


def rows_against_decide(scenario: Scenario) -> None:
    """Assert each replay row equals ``decide`` on its step's fused window.

    The window aggregates come from the replay's own window generators, one
    step at a time; ``decide`` weighs each alone, and the rule as a loop over
    the atoms (``decide_oracle``) checks ``decide``.
    """
    rows = run_scenario(scenario)
    frame = scenario.frame
    empty = vacuous(frame)
    threshold = scenario.conflict_threshold
    steps = list(scenario_module._windows(scenario, len(rows)))
    assert len(steps) == len(rows)
    for row, (t, fused) in zip(rows, steps):
        mass, retained = fused or (empty, 1.0)
        report = CombinationReport(empty if mass is None else mass, 1.0 - retained)
        decision = decide(report, threshold)
        ranked = dict(decision.ranking)
        assert row.time == t
        assert row.intervals == tuple((a, ranked[a]) for a in frame.atoms)
        assert (row.cumulative_conflict, row.status, row.reason, row.hypothesis) == (
            decision.cumulative_conflict,
            decision.status,
            decision.reason,
            decision.hypothesis,
        )
        assert decide_oracle(report, threshold) == (
            decision.status,
            decision.reason,
            decision.hypothesis,
            decision.ranking,
        )


WIDE_ATOMS = tuple(f"a{i:02d}" for i in range(64))


@st.composite
def decided_replays(draw):
    """Replays whose rows reach every branch of the decision rule.

    Frames of 1 to 4 atoms, or of 64 with foci that favour bit 63. Certain
    reports on disjoint atoms contradict a window, gaps longer than the
    window leave it empty (a tie on two atoms or more), a threshold of 0.05
    makes most conflict high, and times up to 90 s on a 0.5-s or 1-s grid
    run past ``_BLOCK_STEPS`` steps. A 64-atom stream holds at most 8
    reports, so a window never holds more than 2**8 focals.
    """
    n_atoms = draw(st.sampled_from([1, 2, 3, 4, 64]))
    frame = Frame(WIDE_ATOMS if n_atoms == 64 else ATOM_POOL[:n_atoms])
    full = (1 << n_atoms) - 1
    top = 1 << (n_atoms - 1)
    focus = st.sampled_from([top, top | 1, full]) | st.integers(1, full)
    stream = [
        (
            draw(st.sampled_from(("eo", "ir", "radar"))),
            draw(st.integers(0, 180)) / 2,
            frame.from_bits(draw(focus)),
            draw(st.integers(0, 20)) / 20,
        )
        for _ in range(draw(st.integers(1, 8 if n_atoms == 64 else 25)))
    ]
    if n_atoms > 1 and draw(st.booleans()):
        t = draw(st.integers(0, 180)) / 2
        stream.append(("eo", t, frame.singleton(frame.atoms[0]), 1.0))
        stream.append(("ir", t, frame.singleton(frame.atoms[-1]), 1.0))
    stream.sort(key=lambda r: r[1])
    return Scenario(
        frame=frame,
        reports=tuple(SensorReport(*r) for r in stream),
        window=draw(st.sampled_from((0.5, 2.0, 5.0, 20.0))),
        step=draw(st.sampled_from((0.5, 1.0))),
        discount_rate=draw(st.sampled_from((1.0, 0.9, 0.0))),
        conflict_threshold=draw(st.sampled_from((0.05, 0.5, 0.95, 1.0))),
    )


def _every_branch(rate: float) -> Scenario:
    # alternating weak reports to t=39; a certain clash at t=20; an exact tie
    # alone in the window from t=60; empty windows between; one strong report
    # that decides at t=90, on a grid of 181 steps
    atoms = ["lake", "tower", "ridge"]
    reports = [("eo", float(k), [atoms[k % 3]], 0.3 + 0.05 * (k % 4)) for k in range(40)]
    reports += [("c1", 20.0, ["lake"], 1.0), ("c2", 20.0, ["tower"], 1.0)]
    reports += [("s1", 60.0, ["lake"], 0.5), ("s2", 60.0, ["tower"], 0.5)]
    reports += [("eo", 90.0, ["ridge"], 0.8)]
    reports.sort(key=lambda r: r[1])
    return scenario_from(
        atoms, reports, window=3.0, step=0.5, discount_rate=rate, conflict_threshold=0.5
    )


DECIDE_CASES = {
    "every-branch-fresh": lambda: _every_branch(1.0),
    "every-branch-aged": lambda: _every_branch(0.9),
    "64-atoms-bit-63-aged": AGED_CASES["64-atoms-foci-on-bit-63"],
    "64-atoms-bit-63-fresh": lambda: dataclasses.replace(
        AGED_CASES["64-atoms-foci-on-bit-63"](), discount_rate=1.0
    ),
}


class TestReplayDecides:
    """Deciding a block of steps at once equals deciding each step alone."""

    @settings(max_examples=60, deadline=None)
    @given(decided_replays())
    def test_each_row_is_decide_on_its_window(self, scenario):
        rows_against_decide(scenario)

    @pytest.mark.parametrize("make", DECIDE_CASES.values(), ids=DECIDE_CASES.keys())
    def test_named_replays_are_decide_on_their_windows(self, make):
        rows_against_decide(make())

    @pytest.mark.parametrize("rate", [1.0, 0.9])
    def test_blocks_closed_by_their_focal_count_decide_alike(self, monkeypatch, rate):
        monkeypatch.setattr(scenario_module, "_BLOCK_FOCALS", 20)
        sizes = []
        blocks = scenario_module._blocks

        def spy(fused_steps):
            for block in blocks(fused_steps):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(scenario_module, "_blocks", spy)
        rows_against_decide(_every_branch(rate))
        assert len(sizes) > 8 and max(sizes) < scenario_module._BLOCK_STEPS

    def test_a_block_closes_at_its_step_or_focal_budget(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "_BLOCK_STEPS", 4)
        monkeypatch.setattr(scenario_module, "_BLOCK_FOCALS", 5)
        frame = Frame(["lake", "tower", "ridge", "clear"])
        two = (simple_support(frame, frame.singleton("lake"), 0.5), 1.0)
        eleven = (MassFunction(frame, [(frame.from_bits(b), 1 / 11) for b in range(1, 12)]), 1.0)
        # an empty or a contradicted window counts as the one focal it is
        # decided on
        empty, contradicted = None, (None, 0.0)
        windows = [eleven, two, two, empty, empty, contradicted, empty, empty, two, contradicted]
        steps = [(float(t), fused) for t, fused in enumerate(windows)]
        blocks = list(scenario_module._blocks(iter(steps)))
        assert [len(b) for b in blocks] == [1, 3, 4, 2]
        assert [step for block in blocks for step in block] == steps

    def test_named_replays_cover_what_they_name(self):
        for rate in (1.0, 0.9):
            rows = run_scenario(_every_branch(rate))
            assert len(rows) > 2 * scenario_module._BLOCK_STEPS
            outcomes = {(row.status, row.reason) for row in rows}
            assert outcomes == {
                (DecisionStatus.CONFLICTED, HIGH_CONFLICT),
                (DecisionStatus.CONFLICTED, TIE),
                (DecisionStatus.LEANING, None),
                (DecisionStatus.DECIDED, None),
            }
            assert any(row.cumulative_conflict == 1.0 for row in rows)
            vacuous_row = tuple(EvidentialInterval(0.0, 1.0) for _ in range(3))
            assert any(tuple(iv for _, iv in row.intervals) == vacuous_row for row in rows)
            tied = [row for row in rows if row.time == 60.0][0]
            assert tied.reason == TIE and tied.cumulative_conflict < 0.5
        wide = DECIDE_CASES["64-atoms-bit-63-fresh"]()
        assert len(run_scenario(wide)) > scenario_module._BLOCK_STEPS
        assert any(r.focus.bits >> 63 for r in wide.reports)


class TestEmitTrace:
    def one_row(self):
        scenario = scenario_from(
            ["lake", "tower"], [("eo", 0.0, ["lake"], 0.8)], window=10.0
        )
        return run_scenario(scenario)

    def test_csv_header_and_fields(self):
        text = emit_trace(self.one_row())
        lines = text.splitlines()
        assert lines[0] == "time,lake_bel,lake_pl,tower_bel,tower_pl,conflict,status,hypothesis"
        assert lines[1] == "0.000000,0.800000,1.000000,0.000000,0.200000,0.000000,decided,lake"

    def test_table_renders_identical_numbers(self):
        rows = self.one_row()
        csv_cells = emit_trace(rows).splitlines()[1].split(",")
        table_line = emit_trace(rows, "table").splitlines()[2]
        assert [c for c in table_line.split() if c] == [c for c in csv_cells if c]

    def test_six_digit_round_half_even(self):
        assert f"{0.8:.6f}" == "0.800000"
        assert f"{0.0000005:.6f}" == "0.000000"  # ties round to even
        assert f"{0.0000015:.6f}" == "0.000002"

    def test_empty_trace(self):
        with pytest.raises(EmptyTrace):
            emit_trace([])

    def test_rows_on_different_frames_are_refused(self):
        # a 12-column header over a 6-cell row, before rows were checked
        lake_tower = run_scenario(load_scenario((DATA / "lake_tower.json").read_text()))
        one_atom = run_scenario(scenario_from(["lake"], [("eo", 0.0, ["lake"], 0.8)]))
        rows = lake_tower[:1] + one_atom
        with pytest.raises(FrameMismatch):
            emit_trace(rows)
        with pytest.raises(FrameMismatch):
            emit_trace(rows[::-1], "table")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_trace(self.one_row(), "yaml")

    def test_unknown_format_is_an_evident_error(self):
        with pytest.raises(EvidentError):
            emit_trace(self.one_row(), "xml")

    def test_aged_golden_fixture_trace(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        aged = dataclasses.replace(scenario, discount_rate=0.9)
        assert emit_trace(run_scenario(aged)) == (
            DATA / "lake_tower_aged_golden.csv"
        ).read_text()

    def test_golden_fixture_trace(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        assert emit_trace(run_scenario(scenario)) == (
            DATA / "lake_tower_golden.csv"
        ).read_text()

    @pytest.mark.parametrize("name", ["wide_40", "wide_40_aged"])
    def test_forty_atom_golden_traces(self, name):
        # a 40-atom stream (gen.replay_scenario, 120 reports) at rates 1 and
        # 0.99: its sorted sums take keys wider than 16 bits, and its goldens
        # were printed by the 16-bit radix grouping that the packed sort
        # replaced, so they catch a fault in the sort that the wide-frame
        # references, which call the same kernels, would share
        scenario = load_scenario((DATA / f"{name}.json").read_text())
        assert emit_trace(run_scenario(scenario)) == (DATA / f"{name}_golden.csv").read_text()
