"""Frame construction, proposition set algebra, and logical translation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import evident
from evident import And, Atom, Frame, Implies, Or, translate_logical
from evident.errors import (
    DuplicateAtom,
    EmptyFrame,
    FrameMismatch,
    InvalidQuery,
    TooManyAtoms,
    UnknownAtom,
    UnmappedAttribute,
)

from .conftest import frames
from .oracles import powerset, truth_table_translate


class TestFrame:
    def test_two_atom_frame(self):
        frame = Frame(["lake", "tower"])
        assert frame.atoms == ("lake", "tower")
        assert len(frame) == 2

    def test_duplicate_atom(self):
        with pytest.raises(DuplicateAtom):
            Frame(["lake", "lake"])

    def test_empty_frame(self):
        with pytest.raises(EmptyFrame):
            Frame([])

    def test_blank_atom_name(self):
        with pytest.raises(EmptyFrame):
            Frame(["lake", ""])

    def test_too_many_atoms(self):
        Frame([f"a{i}" for i in range(64)])  # at the cap is fine
        with pytest.raises(TooManyAtoms):
            Frame([f"a{i}" for i in range(65)])

    def test_value_identity(self):
        assert Frame(["a", "b"]) == Frame(["a", "b"])
        assert hash(Frame(["a", "b"])) == hash(Frame(["a", "b"]))
        assert Frame(["a", "b"]) != Frame(["b", "a"])
        with pytest.raises(AttributeError):
            Frame(["a", "b"]).atoms = ("c",)


class TestProposition:
    def test_named_subset(self, lt_frame):
        p = lt_frame.proposition(["lake"])
        assert p.atoms() == ("lake",)
        assert "lake" in p and "tower" not in p

    def test_empty_subset(self, lt_frame):
        assert lt_frame.proposition([]).is_empty

    def test_unknown_atom(self, lt_frame):
        with pytest.raises(UnknownAtom):
            lt_frame.proposition(["ridge"])

    def test_full_frame(self, lt_frame):
        p = lt_frame.proposition(["lake", "tower"])
        assert p.is_full
        assert p == lt_frame.full()

    def test_complement(self, lt_frame):
        assert lt_frame.proposition(["lake"]).complement() == lt_frame.proposition(
            ["tower"]
        )

    def test_intersect(self):
        frame = Frame(["lake", "tower", "ridge"])
        a = frame.proposition(["lake", "tower"])
        b = frame.proposition(["tower", "ridge"])
        assert a.intersect(b) == frame.proposition(["tower"])
        assert (a & b) == frame.proposition(["tower"])

    def test_is_subset(self, lt_frame):
        assert lt_frame.proposition(["lake"]).is_subset(
            lt_frame.proposition(["lake", "tower"])
        )
        assert not lt_frame.full().is_subset(lt_frame.proposition(["lake"]))

    def test_frame_mismatch(self, lt_frame):
        other = Frame(["lake", "ridge"])
        with pytest.raises(FrameMismatch):
            lt_frame.proposition(["lake"]).intersect(other.proposition(["lake"]))

    @given(frames(max_atoms=4), st.data())
    def test_extremes_and_involution(self, frame, data):
        bits = data.draw(st.integers(0, (1 << len(frame)) - 1))
        p = frame.from_bits(bits)
        assert frame.empty().is_subset(p)
        assert p.is_subset(frame.full())
        assert p.complement().complement() == p

    def test_de_morgan_exhaustive(self):
        # every subset pair of frames with up to 4 atoms
        for n in range(1, 5):
            frame = Frame([f"a{i}" for i in range(n)])
            for pb in range(1 << n):
                for qb in range(1 << n):
                    p, q = frame.from_bits(pb), frame.from_bits(qb)
                    assert p.union(q).complement() == p.complement().intersect(
                        q.complement()
                    )
                    assert p.intersect(q).complement() == p.complement().union(
                        q.complement()
                    )


class TestQueryExpr:
    def test_connective_arity(self):
        with pytest.raises(InvalidQuery):
            And(Atom("a"))
        with pytest.raises(InvalidQuery):
            Or(Atom("a"))

    def test_blank_attribute(self):
        with pytest.raises(InvalidQuery):
            Atom("")

    def test_children_must_be_expressions(self):
        for build in (And, Or):
            with pytest.raises(InvalidQuery, match="children must be query expressions"):
                build(Atom("a"), "b")
        for sides in ((Atom("a"), "b"), ("a", Atom("b"))):
            with pytest.raises(InvalidQuery, match="implies takes two query expressions"):
                Implies(*sides)

    def test_connectives_are_immutable(self):
        expr = And(Atom("a"), Atom("b"))
        with pytest.raises(AttributeError):
            expr.children = (Atom("c"),)

    def test_attributes_in_order(self):
        expr = And(Or(Atom("b"), Atom("a")), Atom("b"))
        assert expr.attributes() == ("b", "a")


class TestTranslateLogical:
    def test_and_is_intersection(self):
        frame = Frame(["x", "y", "z"])
        amap = {"a": frame.proposition(["x", "y"]), "b": frame.proposition(["y", "z"])}
        result = translate_logical(And(Atom("a"), Atom("b")), frame, amap)
        assert result == frame.proposition(["y"])

    def test_or_is_union(self):
        frame = Frame(["x", "y", "z"])
        amap = {"a": frame.proposition(["x"]), "b": frame.proposition(["z"])}
        result = translate_logical(Or(Atom("a"), Atom("b")), frame, amap)
        assert result == frame.proposition(["x", "z"])

    def test_implies_is_material(self):
        frame = Frame(["x", "y", "z"])
        amap = {"a": frame.proposition(["x"]), "b": frame.proposition(["x", "y"])}
        result = translate_logical(Implies(Atom("a"), Atom("b")), frame, amap)
        assert result.is_full

    def test_unmapped_attribute(self):
        frame = Frame(["x"])
        with pytest.raises(UnmappedAttribute):
            translate_logical(Atom("a"), frame, {})

    def test_mapping_to_a_non_proposition(self):
        frame = Frame(["x"])
        with pytest.raises(UnmappedAttribute, match="not a proposition"):
            translate_logical(Atom("a"), frame, {"a": "x"})

    def test_mapping_on_wrong_frame(self):
        frame = Frame(["x"])
        other = Frame(["y"])
        with pytest.raises(FrameMismatch):
            translate_logical(Atom("a"), frame, {"a": other.full()})

    @given(st.data())
    def test_matches_truth_table(self, data):
        frame = data.draw(frames(max_atoms=4))
        names = ("p", "q", "r")
        leaf = st.sampled_from(names).map(Atom)
        expr = data.draw(
            st.recursive(
                leaf,
                lambda kids: st.one_of(
                    st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(*cs)),
                    st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
                    st.tuples(kids, kids).map(lambda lr: Implies(*lr)),
                ),
                max_leaves=8,
            )
        )
        full = (1 << len(frame)) - 1
        amap = {
            name: frame.from_bits(data.draw(st.integers(0, full), label=name))
            for name in names
        }
        got = translate_logical(expr, frame, amap)
        sets = {name: frozenset(p.atoms()) for name, p in amap.items()}
        assert frozenset(got.atoms()) == truth_table_translate(expr, frame, sets)


def test_public_api_exports():
    for name in ("Frame", "Proposition", "translate_logical", "And", "Or"):
        assert hasattr(evident, name)


def test_powerset_helper_sanity():
    assert len(powerset("ab")) == 4
