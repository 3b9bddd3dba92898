"""Answerability intervals, environment polling, decomposition, and views."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evident import (
    And,
    Atom,
    Implies,
    Or,
    SourceDescriptor,
    answerability,
    decompose,
    load_query,
    load_sources,
    make_view,
    poll,
)
from evident.errors import (
    DegreeOutOfRange,
    DuplicateSourceId,
    EmptyShortlist,
    ImpliesNotRoutable,
    InvalidSource,
    ParseError,
    SchemaMismatch,
    TooFewParts,
)

from .oracles import (
    answerability_oracle,
    best_total_by_search,
    fragments_oracle,
)

ATTRS = ("altitude", "terrain", "depth", "wind")


def rational_schema(draw_weights: dict[str, int]) -> dict[str, Fraction]:
    return {a: Fraction(k, 10) for a, k in draw_weights.items()}


@st.composite
def routable_queries(draw, names=ATTRS):
    leaf = st.sampled_from(names).map(Atom)
    return draw(
        st.recursive(
            leaf,
            lambda kids: st.one_of(
                st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(*cs)),
                st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
            ),
            max_leaves=6,
        )
    )


@st.composite
def schemas(draw, names=ATTRS):
    # weight 0 means the attribute is absent from the schema
    tenths = draw(
        st.lists(st.integers(0, 10), min_size=len(names), max_size=len(names))
    )
    return {a: Fraction(k, 10) for a, k in zip(names, tenths) if k > 0}


class TestAnswerability:
    def test_conjunction_multiplies_supports(self):
        src = SourceDescriptor(id="dma", schema={"altitude": 0.9, "terrain": 0.8})
        iv = answerability(And(Atom("altitude"), Atom("terrain")), src)
        assert iv.support == pytest.approx(0.72, abs=1e-12)
        assert iv.plausibility == 1.0

    def test_absent_attribute_is_unanswerable(self):
        src = SourceDescriptor(id="dma", schema={"altitude": 0.9})
        iv = answerability(Atom("depth"), src)
        assert (iv.support, iv.plausibility) == (0.0, 0.0)

    def test_disjunction_coproducts(self):
        src = SourceDescriptor(id="dma", schema={"altitude": 0.9})
        iv = answerability(Or(Atom("altitude"), Atom("depth")), src)
        assert iv.support == pytest.approx(0.9, abs=1e-12)
        assert iv.plausibility == 1.0

    def test_implies_is_not_routable(self):
        src = SourceDescriptor(id="dma", schema={"a": 1.0})
        with pytest.raises(ImpliesNotRoutable):
            answerability(Implies(Atom("a"), Atom("b")), src)
        with pytest.raises(ImpliesNotRoutable):
            answerability(And(Atom("a"), Implies(Atom("a"), Atom("b"))), src)

    @given(routable_queries(), schemas())
    def test_matches_rational_recursion(self, query, schema):
        src = SourceDescriptor(
            id="s", schema={a: float(w) for a, w in schema.items()}
        )
        expected_s, expected_p = answerability_oracle(query, schema)
        iv = answerability(query, src)
        assert iv.support == pytest.approx(float(expected_s), abs=1e-12)
        assert iv.plausibility == pytest.approx(float(expected_p), abs=1e-12)
        assert 0.0 <= iv.support <= iv.plausibility <= 1.0

    @given(routable_queries(), schemas(), st.sampled_from(ATTRS))
    def test_monotone_in_schema(self, query, schema, extra):
        base = SourceDescriptor(id="s", schema={a: float(w) for a, w in schema.items()})
        grown_schema = dict(base.schema)
        grown_schema.setdefault(extra, 0.5)
        grown = SourceDescriptor(id="s", schema=grown_schema)
        assert answerability(query, grown).support >= answerability(query, base).support - 1e-12

    def test_conjunction_agrees_with_binary_fusion(self):
        # independent simple supports of 0.9 and 0.8 on their own
        # answerable/unanswerable questions jointly support the conjunction
        # with the product of the degrees
        yes, no = frozenset(["yes"]), frozenset(["no"])
        both = frozenset(["yes", "no"])
        from .oracles import bel_oracle, combine_oracle

        m_alt = {yes: 0.9, both: 0.1}
        m_ter = {yes: 0.8, both: 0.2}
        # the joint support that *both* are answerable multiplies the
        # individual beliefs under independence
        joint_support = bel_oracle(m_alt, yes) * bel_oracle(m_ter, yes)
        src = SourceDescriptor(id="dma", schema={"altitude": 0.9, "terrain": 0.8})
        iv = answerability(And(Atom("altitude"), Atom("terrain")), src)
        assert iv.support == pytest.approx(joint_support, abs=1e-12)
        # sanity: fusing agreeing evidence on one question never conflicts
        _, conflict = combine_oracle(m_alt, {yes: 0.8, both: 0.2})
        assert conflict == 0.0


class TestPoll:
    def test_orders_by_support(self):
        query = And(Atom("altitude"), Atom("terrain"))
        sources = [
            SourceDescriptor(id="mid", schema={"altitude": 0.9, "terrain": 0.8}),
            SourceDescriptor(id="none", schema={"wind": 1.0}),
            SourceDescriptor(id="best", schema={"altitude": 0.9, "terrain": 1.0}),
        ]
        shortlist = poll(query, sources, threshold=0.5)
        assert [sid for sid, _ in shortlist] == ["best", "mid"]
        assert shortlist[0][1].support == pytest.approx(0.9, abs=1e-12)
        assert shortlist[1][1].support == pytest.approx(0.72, abs=1e-12)

    def test_twenty_sources_five_capable(self):
        query = And(Atom("altitude"), Atom("terrain"))
        capable = [
            SourceDescriptor(
                id=f"cap{i}", schema={"altitude": 0.5 + i / 10, "terrain": 0.9}
            )
            for i in range(5)
        ]
        lacking = [
            SourceDescriptor(id=f"alt_only{i}", schema={"altitude": 1.0})
            for i in range(5)
        ]
        lacking += [
            SourceDescriptor(id=f"ter_only{i}", schema={"terrain": 1.0})
            for i in range(5)
        ]
        lacking += [
            SourceDescriptor(id=f"other{i}", schema={"wind": 1.0, "depth": 1.0})
            for i in range(5)
        ]
        shortlist = poll(query, capable + lacking)
        assert len(shortlist) == 5
        assert {sid for sid, _ in shortlist} == {f"cap{i}" for i in range(5)}

    def test_zero_threshold_returns_everything(self):
        query = Atom("altitude")
        sources = [
            SourceDescriptor(id="a", schema={"altitude": 0.9}),
            SourceDescriptor(id="b", schema={"wind": 1.0}),
        ]
        assert len(poll(query, sources, threshold=0.0)) == 2

    def test_tiebreak_priority_then_id(self):
        query = Atom("altitude")
        sources = [
            SourceDescriptor(id="zeta", schema={"altitude": 0.8}, priority=0),
            SourceDescriptor(id="alpha", schema={"altitude": 0.8}, priority=1),
            SourceDescriptor(id="beta", schema={"altitude": 0.8}, priority=0),
        ]
        assert [sid for sid, _ in poll(query, sources)] == ["beta", "zeta", "alpha"]

    def test_threshold_validated(self):
        with pytest.raises(DegreeOutOfRange):
            poll(Atom("a"), [], threshold=1.5)

    @given(routable_queries(), st.lists(schemas(), min_size=1, max_size=4))
    def test_anti_monotone_in_threshold(self, query, schema_list):
        sources = [
            SourceDescriptor(id=f"s{i}", schema={a: float(w) for a, w in s.items()})
            for i, s in enumerate(schema_list)
        ]
        lower = {sid for sid, _ in poll(query, sources, threshold=0.3)}
        higher = {sid for sid, _ in poll(query, sources, threshold=0.7)}
        assert higher <= lower
        assert len(poll(query, sources, threshold=0.0)) == len(sources)


class TestDecompose:
    def test_splits_across_sources(self):
        src1 = SourceDescriptor(id="src1", schema={"a": 0.9})
        src2 = SourceDescriptor(id="src2", schema={"b": 0.8})
        plan = decompose(And(Atom("a"), Atom("b")), [src1, src2])
        assert [(repr(e), s) for e, s in plan.assignments] == [
            ("a", "src1"),
            ("b", "src2"),
        ]
        assert plan.total_support == pytest.approx(0.72, abs=1e-12)
        assert plan.unassigned == ()

    def test_keeps_conjunction_whole(self):
        src1 = SourceDescriptor(id="src1", schema={"a": 0.9, "b": 0.8})
        plan = decompose(And(Atom("a"), Atom("b")), [src1])
        assert len(plan.assignments) == 1
        fragment, source_id = plan.assignments[0]
        assert repr(fragment) == "and(a,b)"
        assert source_id == "src1"
        assert plan.total_support == pytest.approx(0.72, abs=1e-12)

    def test_unanswerable_residue(self):
        src1 = SourceDescriptor(id="src1", schema={"a": 0.9})
        plan = decompose(And(Atom("a"), Atom("c")), [src1])
        assert [(repr(e), s) for e, s in plan.assignments] == [("a", "src1")]
        assert [repr(e) for e in plan.unassigned] == ["c"]
        assert plan.total_support == pytest.approx(0.9, abs=1e-12)

    def test_empty_shortlist(self):
        with pytest.raises(EmptyShortlist):
            decompose(Atom("a"), [])

    def test_implies_rejected(self):
        src = SourceDescriptor(id="s", schema={"a": 1.0})
        with pytest.raises(ImpliesNotRoutable):
            decompose(Implies(Atom("a"), Atom("a")), [src])

    def test_tiebreak_priority_then_id(self):
        query = Atom("a")
        sources = [
            SourceDescriptor(id="zeta", schema={"a": 0.9}, priority=0),
            SourceDescriptor(id="alpha", schema={"a": 0.9}, priority=0),
        ]
        plan = decompose(query, sources)
        assert plan.assignments[0][1] == "alpha"

    @given(routable_queries(), st.lists(schemas(), min_size=1, max_size=4))
    def test_matches_exhaustive_assignment_search(self, query, schema_list):
        sources = [
            SourceDescriptor(id=f"s{i}", schema={a: float(w) for a, w in s.items()})
            for i, s in enumerate(schema_list)
        ]
        plan = decompose(query, sources)
        fragments, unassigned = fragments_oracle(query, schema_list)
        assert [repr(f) for f, _ in plan.assignments] == [repr(f) for f in fragments]
        assert [repr(u) for u in plan.unassigned] == [repr(u) for u in unassigned]
        best = best_total_by_search(fragments, schema_list)
        assert plan.total_support == pytest.approx(float(best), abs=1e-12)

    @given(routable_queries(), st.lists(schemas(), min_size=1, max_size=4))
    def test_assignments_come_from_shortlist(self, query, schema_list):
        sources = [
            SourceDescriptor(id=f"s{i}", schema={a: float(w) for a, w in s.items()})
            for i, s in enumerate(schema_list)
        ]
        plan = decompose(query, sources)
        ids = {src.id for src in sources}
        assert all(sid in ids for _, sid in plan.assignments)


class TestMakeView:
    def test_elementwise_max(self):
        p1 = SourceDescriptor(id="dma", schema={"a": 0.9, "b": 0.5}, priority=2)
        p2 = SourceDescriptor(id="intel", schema={"a": 0.6, "b": 0.8}, priority=1)
        view = make_view("flight_plan", [p1, p2])
        assert view.id == "flight_plan"
        assert view.schema == {"a": 0.9, "b": 0.8}
        assert view.priority == 1

    def test_schema_mismatch_lists_attributes(self):
        p1 = SourceDescriptor(id="x", schema={"a": 0.9, "b": 0.5})
        p2 = SourceDescriptor(id="y", schema={"a": 0.6, "c": 0.8})
        with pytest.raises(SchemaMismatch) as err:
            make_view("v", [p1, p2])
        assert err.value.attributes == ("b", "c")

    def test_too_few_parts(self):
        p1 = SourceDescriptor(id="x", schema={"a": 0.9})
        with pytest.raises(TooFewParts):
            make_view("v", [p1])

    @given(routable_queries(names=("a", "b")), st.data())
    def test_view_dominates_parts(self, query, data):
        tenths = st.lists(st.integers(1, 10), min_size=2, max_size=2)
        w1 = data.draw(tenths)
        w2 = data.draw(tenths)
        p1 = SourceDescriptor(id="p1", schema={"a": w1[0] / 10, "b": w1[1] / 10})
        p2 = SourceDescriptor(id="p2", schema={"a": w2[0] / 10, "b": w2[1] / 10})
        view = make_view("v", [p1, p2])
        view_support = answerability(query, view).support
        for part in (p1, p2):
            assert view_support >= answerability(query, part).support - 1e-12


class TestDescriptors:
    def test_invalid_weight(self):
        with pytest.raises(InvalidSource):
            SourceDescriptor(id="x", schema={"a": 1.5})

    @pytest.mark.parametrize("weight", ["y", [1], "0.5", True])
    def test_weight_must_be_a_real_number(self, weight):
        with pytest.raises(InvalidSource, match="must be a number"):
            SourceDescriptor(id="x", schema={"a": weight})

    def test_integer_weights_are_floats(self):
        assert SourceDescriptor(id="x", schema={"a": 1, "b": 0}).schema == {"a": 1.0, "b": 0.0}
        with pytest.raises(InvalidSource):
            SourceDescriptor(id="x", schema={"a": 10**400})

    def test_schema_must_be_a_mapping(self):
        with pytest.raises(InvalidSource, match="must be a mapping"):
            SourceDescriptor("a", 5)

    @pytest.mark.parametrize("priority", ["x", 0.5, None, True])
    def test_priority_must_be_an_integer(self, priority):
        with pytest.raises(InvalidSource, match="must be an integer"):
            SourceDescriptor("s", {"a": 0.5}, priority=priority)

    def test_priority_type_error_in_a_document(self):
        with pytest.raises(InvalidSource, match="must be an integer"):
            load_sources('[{"id": "a", "priority": "1", "schema": {}}]')

    def test_blank_id(self):
        with pytest.raises(InvalidSource):
            SourceDescriptor(id="", schema={})

    def test_checked_schema_is_read_only(self):
        weights = {"a": 0.5}
        src = SourceDescriptor("s", weights)
        with pytest.raises(TypeError):
            src.schema["a"] = 7
        weights["a"] = 7
        assert src.schema == {"a": 0.5}
        assert answerability(Atom("a"), src).support == 0.5

    def test_descriptors_hash_by_id_weights_and_priority(self):
        src = SourceDescriptor("s", {"a": 0.5, "b": 1})
        same = SourceDescriptor("s", {"b": 1.0, "a": 0.5})
        assert src == same and hash(src) == hash(same)
        others = [
            SourceDescriptor("t", {"a": 0.5, "b": 1}),
            SourceDescriptor("s", {"a": 0.4, "b": 1}),
            SourceDescriptor("s", {"a": 0.5, "b": 1}, priority=1),
        ]
        assert len({src, same, *others}) == 4

    def test_descriptors_copy_and_pickle(self):
        src = SourceDescriptor("s", {"a": 0.5}, priority=2)
        for twin in (copy.copy(src), copy.deepcopy(src), pickle.loads(pickle.dumps(src))):
            assert twin == src and hash(twin) == hash(src)


class TestFileFormats:
    def test_sources_roundtrip(self):
        text = """
        [
          {"id": "dma", "priority": 1, "schema": {"altitude": 0.9, "terrain": 0.8}},
          {"id": "intel", "schema": {"terrain": 0.7}}
        ]
        """
        dma, intel = load_sources(text)
        assert dma.id == "dma" and dma.priority == 1
        assert dma.schema == {"altitude": 0.9, "terrain": 0.8}
        assert intel.priority == 0

    def test_duplicate_source_id(self):
        text = '[{"id": "x", "schema": {}}, {"id": "x", "schema": {}}]'
        with pytest.raises(DuplicateSourceId):
            load_sources(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_weight_rejected(self, constant):
        with pytest.raises(ParseError, match="non-finite"):
            load_sources(f'[{{"id": "dma", "schema": {{"altitude": {constant}}}}}]')

    def test_query_roundtrip(self):
        text = """
        {"op": "and", "children": [
            {"op": "atom", "name": "altitude"},
            {"op": "or", "children": [
                {"op": "atom", "name": "terrain"},
                {"op": "atom", "name": "depth"}
            ]}
        ]}
        """
        query = load_query(text)
        assert repr(query) == "and(altitude,or(terrain,depth))"

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_query('{"op": "atom",\n  "name": }')
        assert err.value.line == 2

    def test_unknown_op(self):
        with pytest.raises(ParseError):
            load_query('{"op": "xor", "children": []}')

    def test_atom_needs_name(self):
        with pytest.raises(ParseError):
            load_query('{"op": "atom"}')
