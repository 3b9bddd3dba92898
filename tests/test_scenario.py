"""Scenario loading, windowed replay, and trace formatting."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evident import (
    DecisionStatus,
    EvidentialInterval,
    Frame,
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
    InvalidReport,
    InvalidWindow,
    ParseError,
    TotalConflict,
    UnknownAtom,
    UnsortedReports,
)

from .conftest import ATOM_POOL

DATA = Path(__file__).parent / "data"


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
    while t <= t_end + 1e-9:
        supports = [
            simple_support(frame, r.focus, scenario.discount_rate ** (t - r.time) * r.degree)
            for r in scenario.reports
            if t - scenario.window < r.time <= t
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

    Degrees are multiples of 0.05, which keeps every focal mass well above
    the combine pruning floor; some streams carry two certain reports on
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
        discount_rate=draw(st.sampled_from((1.0, 0.9, 0.0))),
        conflict_threshold=draw(st.sampled_from((0.5, 0.95, 1.0))),
    )


def _clash_then_calm() -> Scenario:
    reports = [("eo", 0.0, ["lake"], 1.0), ("ir", 0.0, ["tower"], 1.0)]
    reports += [
        ("radar", k / 2, [("lake", "ridge", "tower")[k % 3]], 0.35) for k in range(1, 17)
    ]
    return scenario_from(["lake", "tower", "ridge"], reports, window=3.0, step=0.5)


class TestReplayProperties:
    @given(report_streams())
    @example(_clash_then_calm())
    def test_incremental_matches_per_step_recompute(self, scenario):
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
            want = {
                atom: report.result.interval(frame.singleton(atom)) for atom in frame.atoms
            }
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

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_trace(self.one_row(), "yaml")

    def test_unknown_format_is_an_evident_error(self):
        with pytest.raises(EvidentError):
            emit_trace(self.one_row(), "xml")

    def test_golden_fixture_trace(self):
        scenario = load_scenario((DATA / "lake_tower.json").read_text())
        assert emit_trace(run_scenario(scenario)) == (
            DATA / "lake_tower_golden.csv"
        ).read_text()
