"""Fuzzing the parameters of the public API: only EvidentError escapes.

Every callable in ``evident.__all__`` that takes a number gets strings,
``None``, nested lists, bools, NaN, infinities, integers past the float range
and arbitrary numbers in its numeric slot; each call must return or raise an
:class:`EvidentError`. Values that are not finite numbers must be refused.
Every slot that takes one of the package's objects (a mass function, a
proposition, a report, a scenario, a source) gets strings, numbers, ``None``,
lists, mappings and a query, and must refuse them with :class:`WrongType`.
Of the result records, ``CombinationReport`` is fuzzed, because ``decide``
takes one, ``TraceRow``, because ``emit_trace`` takes them, and
``RoutePlan``, which ``evident route`` prints; ``Decision`` and
``SupportTriple`` are only returned by the package, and are left out.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evident import (
    Atom,
    CombinationReport,
    DecisionStatus,
    EvidentialInterval,
    Frame,
    MassFunction,
    Proposition,
    RoutePlan,
    Scenario,
    SensorReport,
    SourceDescriptor,
    TraceRow,
    answerability,
    bayesian_from_probabilities,
    combine,
    combine_all,
    conflict_mass,
    decide,
    decompose,
    discount,
    emit_trace,
    make_view,
    mass_new,
    poll,
    run_scenario,
    simple_support,
    support_pro_con,
)
from evident.errors import EvidentError, WrongType

FRAME = Frame(["lake", "tower"])
LAKE = FRAME.singleton("lake")
TOWER = FRAME.singleton("tower")
SUPPORT = simple_support(FRAME, LAKE, 0.6)
QUERY = Atom("a")


def _replay(*reports, **params) -> str:
    # reports share one time, so the grid has one row whatever the step
    reports = reports or (
        SensorReport("eo", 1.0, LAKE, 0.6),
        SensorReport("ir", 1.0, TOWER, 0.4),
    )
    return emit_trace(run_scenario(Scenario(FRAME, reports, **params)))


def _row(**fields) -> str:
    # one decided row on FRAME, with ``fields`` in place of its own
    row = dict(
        time=1.0,
        intervals=(("lake", EvidentialInterval(0.6, 1.0)), ("tower", EvidentialInterval(0.0, 0.4))),
        cumulative_conflict=0.0,
        status=DecisionStatus.DECIDED,
        reason=None,
        hypothesis="lake",
    )
    return emit_trace([TraceRow(**{**row, **fields})])


def _route(source: SourceDescriptor):
    # a second source with the same support makes the sort compare priorities
    sources = [source, SourceDescriptor("t", {"a": 0.5})]
    return poll(QUERY, sources), decompose(QUERY, sources)


# one call per numeric parameter, with the value in that slot
CALLS = {
    "EvidentialInterval.support": lambda v: EvidentialInterval(v, 1.0),
    "EvidentialInterval.plausibility": lambda v: EvidentialInterval(0.0, v),
    "MassFunction.mass": lambda v: MassFunction(FRAME, [(LAKE, v), (FRAME.full(), 0.5)]),
    "mass_new.mass": lambda v: mass_new(FRAME, [(LAKE, 0.5), (TOWER, v)]),
    "Proposition.bits": lambda v: Proposition(FRAME, v).atoms(),
    "simple_support.degree": lambda v: simple_support(FRAME, LAKE, v),
    "bayesian_from_probabilities.probability": (
        lambda v: bayesian_from_probabilities(FRAME, {"lake": v, "tower": 0.5})
    ),
    "discount.factor": lambda v: discount(SUPPORT, v),
    "decide.conflict_threshold": lambda v: decide(combine(SUPPORT, SUPPORT), v),
    "CombinationReport.conflict": lambda v: decide(CombinationReport(SUPPORT, v)),
    "poll.threshold": lambda v: poll(QUERY, [SourceDescriptor("s", {"a": 0.5})], threshold=v),
    "SourceDescriptor.weight": lambda v: _route(SourceDescriptor("s", {"a": v})),
    "SourceDescriptor.priority": lambda v: _route(SourceDescriptor("s", {"a": 0.5}, priority=v)),
    "SensorReport.time": lambda v: _replay(SensorReport("eo", v, LAKE, 0.6)),
    "SensorReport.degree": lambda v: _replay(SensorReport("eo", 0.0, LAKE, v)),
    "Scenario.window": lambda v: _replay(window=v),
    "Scenario.step": lambda v: _replay(step=v),
    "Scenario.discount_rate": lambda v: _replay(discount_rate=v),
    "Scenario.conflict_threshold": lambda v: _replay(conflict_threshold=v),
    "TraceRow.time": lambda v: _row(time=v),
    "TraceRow.cumulative_conflict": lambda v: _row(cumulative_conflict=v),
    "RoutePlan.total_support": lambda v: RoutePlan(((QUERY, "s"),), v, ()),
}

NOT_NUMBERS = ["x", "0.5", None, [[0.5]], True, False, math.nan, math.inf, -math.inf]

values = (
    st.text(max_size=4)
    | st.none()
    | st.booleans()
    | st.recursive(st.none() | st.floats(0.0, 1.0), lambda kids: st.lists(kids, max_size=3))
    | st.floats()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 2**63, 5e-324])
)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
def test_non_numbers_are_refused(call, value):
    with pytest.raises(EvidentError):
        call(value)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@settings(max_examples=60, deadline=None)
@given(value=values)
@example(value=10**400)
@example(value=0.5)
def test_only_evident_errors_escape(call, value):
    try:
        call(value)
    except EvidentError:
        pass


# one call per object parameter, with the value in that slot
OBJECT_CALLS = {
    "combine.m1": lambda v: combine(v, SUPPORT),
    "combine.m2": lambda v: combine(SUPPORT, v),
    "conflict_mass.m2": lambda v: conflict_mass(SUPPORT, v),
    "combine_all.masses": lambda v: combine_all(v),
    "combine_all.item": lambda v: combine_all([SUPPORT, v]),
    "discount.m": lambda v: discount(v, 0.5),
    "simple_support.focus": lambda v: simple_support(FRAME, v, 0.5),
    "MassFunction.proposition": lambda v: MassFunction(FRAME, [(v, 1.0)]),
    "MassFunction.entry": lambda v: MassFunction(FRAME, [v]),
    "CombinationReport.result": lambda v: CombinationReport(v, 0.0),
    "SensorReport.focus": lambda v: SensorReport("eo", 0.0, v, 0.5),
    "Scenario.frame": lambda v: Scenario(v, ()),
    "Scenario.report": lambda v: Scenario(FRAME, [v]),
    "run_scenario.scenario": lambda v: run_scenario(v),
    "answerability.source": lambda v: answerability(QUERY, v),
    "decompose.source": lambda v: decompose(QUERY, [v]),
    "make_view.part": lambda v: make_view("v", [SourceDescriptor("s", {"a": 0.5}), v]),
    "decide.report": lambda v: decide(v),
    "support_pro_con.m": lambda v: support_pro_con(v, LAKE),
    "support_pro_con.proposition": lambda v: support_pro_con(SUPPORT, v),
    "MassFunction.interval": lambda v: SUPPORT.interval(v),
    "emit_trace.row": lambda v: emit_trace([v]),
    "TraceRow.intervals": lambda v: _row(intervals=v),
    "TraceRow.intervals.pair": lambda v: _row(intervals=(v,)),
    "TraceRow.intervals.interval": lambda v: _row(intervals=(("lake", v),)),
    "TraceRow.status": lambda v: _row(status=v),
    "RoutePlan.assignments": lambda v: RoutePlan(v, 1.0, ()),
    "RoutePlan.assignments.pair": lambda v: RoutePlan((v,), 1.0, ()),
    "RoutePlan.unassigned": lambda v: RoutePlan((), 1.0, v),
}

NOT_OBJECTS = ["x", "a", None, 0.5, 7, True, [["lake"]], {"lake": 1.0}, QUERY]


@pytest.mark.parametrize("call", OBJECT_CALLS.values(), ids=OBJECT_CALLS.keys())
@pytest.mark.parametrize("value", NOT_OBJECTS, ids=repr)
def test_objects_of_the_wrong_type_are_refused(call, value):
    with pytest.raises(WrongType):
        call(value)


def test_wrong_type_is_also_a_type_error():
    with pytest.raises(TypeError):
        combine(SUPPORT, "x")


@pytest.mark.parametrize("entry", [(LAKE,), (LAKE, 0.5, 1), [], "ab"], ids=repr)
def test_an_entry_that_is_not_a_pair_is_refused(entry):
    with pytest.raises(WrongType):
        MassFunction(FRAME, [(TOWER, 0.5), entry])


def test_a_well_formed_row_is_emitted():
    assert _row() == (
        "time,lake_bel,lake_pl,tower_bel,tower_pl,conflict,status,hypothesis\n"
        "1.000000,0.600000,1.000000,0.000000,0.400000,0.000000,decided,lake\n"
    )


@pytest.mark.parametrize(
    "fields",
    [
        {"time": "x", "intervals": ()},
        {"intervals": ()},
        {"intervals": (("lake", EvidentialInterval(0.6, 1.0), "tower"),)},
        {"reason": 5},
        {"hypothesis": ["lake"]},
        {"cumulative_conflict": 1.5},
    ],
    ids=repr,
)
def test_malformed_rows_are_refused(fields):
    with pytest.raises(EvidentError):
        _row(**fields)


def test_a_well_formed_plan_is_kept():
    plan = RoutePlan(((QUERY, "s"),), 1, (Atom("b"),))
    assert plan.assignments == ((QUERY, "s"),)
    assert plan.unassigned == (Atom("b"),)
    assert type(plan.total_support) is float and plan.total_support == 1.0


@pytest.mark.parametrize(
    "fields",
    [
        {"assignments": (("a", "s"),)},
        {"assignments": ((QUERY, 5),)},
        {"assignments": ((QUERY, "s", "t"),)},
        {"assignments": ([QUERY, "s"],)},
        {"unassigned": ("a",)},
        {"total_support": 1.5},
        {"total_support": -0.1},
    ],
    ids=repr,
)
def test_malformed_plans_are_refused(fields):
    plan = dict(assignments=((QUERY, "s"),), total_support=0.5, unassigned=())
    with pytest.raises(EvidentError):
        RoutePlan(**{**plan, **fields})
