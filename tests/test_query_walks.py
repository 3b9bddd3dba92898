"""Every walk over a query tree: any depth, structural equality, float references.

Trees built in the library have no depth cap, so each walk (``repr``, ``==``,
``hash``, ``attributes``, ``translate_logical``, ``answerability``, ``poll``,
``decompose``) must handle chains far deeper than the interpreter's
recursion limit.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evident import (
    And,
    Atom,
    Frame,
    Implies,
    Or,
    QueryExpr,
    SourceDescriptor,
    answerability,
    decompose,
    poll,
    translate_logical,
)
from evident.errors import ImpliesNotRoutable, InvalidQuery

from .conftest import query_trees
from .oracles import bounds_float_oracle, decompose_float_oracle, has_implies

DEPTH = 10_000
NAMES = ("a0", "a1", "a2", "a3", "a4")


def _chain(left: bool, first: str = "a0"):
    """A DEPTH-level binary chain alternating and / or, with its expected walks.

    Level i > 0 joins the level below with leaf ``a{i % 5}``, on the right
    when ``left`` (the chain nests leftward) and on the left otherwise. The
    expected repr, leaves in reading order and per-level nodes are built
    alongside, without walking the tree.
    """
    node = Atom(first)
    text = first
    levels = [node]
    for i in range(1, DEPTH):
        kind, label = (And, "and") if i % 2 else (Or, "or")
        leaf = f"a{i % 5}"
        if left:
            node = kind(node, Atom(leaf))
            text = f"{label}({text},{leaf})"
        else:
            node = kind(Atom(leaf), node)
            text = f"{label}({leaf},{text})"
        levels.append(node)
    later = [f"a{i % 5}" for i in range(1, DEPTH)]
    leaves = [first] + later if left else later[::-1] + [first]
    return node, text, leaves, levels


def _expected_bounds(left: bool, schema: dict[str, float]) -> tuple[float, float]:
    # the same products in the same order as the fold, level by level
    s, p = (schema["a0"], 1.0) if "a0" in schema else (0.0, 0.0)
    for i in range(1, DEPTH):
        leaf = f"a{i % 5}"
        ls, lp = (schema[leaf], 1.0) if leaf in schema else (0.0, 0.0)
        kids = [(s, p), (ls, lp)] if left else [(ls, lp), (s, p)]
        if i % 2:
            s, p = 1.0, 1.0
            for cs, cp in kids:
                s *= cs
                p *= cp
        else:
            ms, mp = 1.0, 1.0
            for cs, cp in kids:
                ms *= 1.0 - cs
                mp *= 1.0 - cp
            s, p = 1.0 - ms, 1.0 - mp
    return s, p


@pytest.mark.parametrize("left", [True, False], ids=["left-nested", "right-nested"])
def test_deep_chain_through_every_walk(left):
    assert DEPTH > sys.getrecursionlimit()
    tree, text, leaves, levels = _chain(left)
    twin = _chain(left)[0]
    other = _chain(left, first="a1")[0]

    assert repr(tree) == text
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != other
    assert tree.attributes() == tuple(dict.fromkeys(leaves))

    frame = Frame(["x", "y", "z"])
    atom_map = {name: frame.from_bits(k % 7 + 1) for k, name in enumerate(NAMES)}
    expected = atom_map[leaves[0]]
    for i in range(1, DEPTH):
        leaf = atom_map[f"a{i % 5}"]
        expected = expected & leaf if i % 2 else expected | leaf
    assert translate_logical(tree, frame, atom_map) == expected

    # "part" lacks a4, so every level from 4 up holds an atom it cannot answer
    whole = SourceDescriptor("whole", {name: 0.9 for name in NAMES})
    part = SourceDescriptor("part", {name: 0.5 + k / 10 for k, name in enumerate(NAMES[:4])})
    for src in (whole, part):
        assert tuple(answerability(tree, src)) == _expected_bounds(left, src.schema)
    assert poll(tree, [part, whole], threshold=0.0) == sorted(
        ((src.id, answerability(tree, src)) for src in (part, whole)),
        key=lambda pair: (-pair[1].support, pair[0]),
    )

    plan = decompose(tree, [whole])
    assert plan.assignments == ((tree, "whole"),) and plan.unassigned == ()

    plan = decompose(tree, [part])
    # maximal fragments: level 3 whole, then every later leaf on its own
    later = [Atom(f"a{i % 5}") for i in range(4, DEPTH)]
    fragments = [levels[3]] + later if left else later[::-1] + [levels[3]]
    answered = [f for f in fragments if f != Atom("a4")]
    assert plan.assignments == tuple((f, "part") for f in answered)
    assert plan.unassigned == tuple(f for f in fragments if f == Atom("a4"))
    supports = [
        part.schema[f.name] if isinstance(f, Atom) else answerability(f, part).support
        for f in answered
    ]
    assert plan.total_support == math.prod(supports)


def test_deep_implies_chain():
    frame = Frame(["x", "y", "z"])
    atom_map = {name: frame.from_bits(k % 7 + 1) for k, name in enumerate(NAMES)}

    def build(first="a0"):
        tree = Atom(first)
        for i in range(1, DEPTH):
            tree = Implies(tree, Atom(f"a{i % 5}"))
        return tree

    tree = build()
    expected = atom_map["a0"]
    for i in range(1, DEPTH):
        expected = ~expected | atom_map[f"a{i % 5}"]
    assert translate_logical(tree, frame, atom_map) == expected
    assert repr(tree) == "implies(" * (DEPTH - 1) + "a0" + "".join(
        f",a{i % 5})" for i in range(1, DEPTH)
    )
    assert tree == build() and hash(tree) == hash(build())
    assert tree != build(first="a1")
    assert tree.attributes() == NAMES


def test_deep_implies_is_not_routable():
    tree = Implies(Atom("a0"), Atom("a1"))
    for i in range(DEPTH):
        tree = And(Atom(f"a{i % 5}"), tree)
    src = SourceDescriptor("s", {name: 1.0 for name in NAMES})
    with pytest.raises(ImpliesNotRoutable):
        answerability(tree, src)
    with pytest.raises(ImpliesNotRoutable):
        poll(tree, [src])
    with pytest.raises(ImpliesNotRoutable):
        decompose(tree, [src])


class TestStructuralEquality:
    def test_repr_collision_is_unequal(self):
        glued = And(Atom("a,b"), Atom("c"))
        split = And(Atom("a"), Atom("b"), Atom("c"))
        assert repr(glued) == repr(split)
        assert glued != split

    def test_separate_builds_are_equal_and_hash_equal(self):
        def build():
            return Or(And(Atom("a"), Atom("b")), Implies(Atom("c"), Atom("a")))

        assert build() == build()
        assert hash(build()) == hash(build())
        assert len({build(), build()}) == 1

    def test_connective_type_matters(self):
        kids = (Atom("a"), Atom("b"))
        assert And(*kids) != Or(*kids)
        assert Implies(*kids) != Implies(*kids[::-1])
        assert And(*kids) != Atom("a") and Atom("a") != And(*kids)
        assert And(*kids) != "and(a,b)"

    @given(query_trees(NAMES))
    def test_rebuilt_tree_is_equal(self, tree):
        def rebuild(node):
            if isinstance(node, Atom):
                return Atom(node.name)
            if isinstance(node, Implies):
                return Implies(rebuild(node.lhs), rebuild(node.rhs))
            return type(node)(*map(rebuild, node.children))

        copy = rebuild(tree)
        assert copy == tree and hash(copy) == hash(tree)
        assert repr(copy) == repr(tree)


class TestUnknownNode:
    class Stranger(QueryExpr):
        pass

    def test_every_walk_refuses_it(self):
        tree = And(Atom("a"), self.Stranger())
        frame = Frame(["x"])
        src = SourceDescriptor("s", {"a": 1.0})
        for walk in (
            tree.attributes,
            lambda: repr(tree),
            lambda: hash(tree),
            lambda: translate_logical(tree, frame, {"a": frame.full()}),
            lambda: answerability(tree, src),
            lambda: decompose(tree, [src]),
        ):
            with pytest.raises(InvalidQuery, match="unknown query node Stranger"):
                walk()


@st.composite
def float_sources(draw):
    """1-4 sources; weights from a small pool that includes 0 and 1."""
    weight = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0]) | st.floats(0.0, 1.0)
    count = draw(st.integers(1, 4))
    return [
        SourceDescriptor(
            id=f"s{i}",
            schema=draw(st.dictionaries(st.sampled_from(NAMES), weight, max_size=5)),
            priority=draw(st.integers(0, 2)),
        )
        for i in range(count)
    ]


# three weights whose product, and co-product, round differently
# in another order; they pin the order of every multiplication
_ORDERED = {"a0": 0.51, "a1": 0.59, "a2": 0.03}
_THREE = [Atom(name) for name in _ORDERED]


class TestFloatReference:
    @given(query_trees(NAMES, max_leaves=12, max_arity=4), float_sources(),
           st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    @example(And(*_THREE), [SourceDescriptor("s", _ORDERED)], 0.0)
    @example(Or(*_THREE), [SourceDescriptor("s", _ORDERED)], 0.0)
    @example(
        And(*_THREE),
        [SourceDescriptor(f"s{k}", {name: w}) for k, (name, w) in enumerate(_ORDERED.items())],
        0.0,
    )
    def test_routing_matches_recursion(self, tree, sources, threshold):
        if has_implies(tree):
            for route in (
                lambda: answerability(tree, sources[0]),
                lambda: poll(tree, sources, threshold),
                lambda: decompose(tree, sources),
            ):
                with pytest.raises(ImpliesNotRoutable):
                    route()
            return
        intervals = {src.id: answerability(tree, src) for src in sources}
        for src in sources:
            assert tuple(intervals[src.id]) == bounds_float_oracle(tree, src.schema)
        by_id = {src.id: src for src in sources}
        shortlist = sorted(
            (sid for sid, iv in intervals.items() if iv.plausibility >= threshold),
            key=lambda sid: (-intervals[sid].support, by_id[sid].priority, sid),
        )
        assert poll(tree, sources, threshold) == [(sid, intervals[sid]) for sid in shortlist]
        plan = decompose(tree, sources)
        assert (plan.assignments, plan.total_support, plan.unassigned) == (
            decompose_float_oracle(tree, sources)
        )
