"""Fuzzing the numeric parameters of the public API: only EvidentError escapes.

Every callable in ``evident.__all__`` that takes a number gets strings,
``None``, nested lists, bools, NaN, infinities, integers past the float range
and arbitrary numbers in its numeric slot; each call must return or raise an
:class:`EvidentError`. Values that are not finite numbers must be refused.
Of the result records, ``CombinationReport`` is fuzzed, because ``decide``
takes one; ``Decision``, ``SupportTriple``, ``TraceRow`` and ``RoutePlan``
are only returned by the package, and are left out.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evident import (
    Atom,
    CombinationReport,
    EvidentialInterval,
    Frame,
    MassFunction,
    Proposition,
    Scenario,
    SensorReport,
    SourceDescriptor,
    bayesian_from_probabilities,
    combine,
    decide,
    decompose,
    discount,
    emit_trace,
    mass_new,
    poll,
    run_scenario,
    simple_support,
)
from evident.errors import EvidentError

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
