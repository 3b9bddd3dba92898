"""Fuzzing the document loaders: any input ends in a value or an EvidentError."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evident import load_query, load_scenario, load_sources
from evident._jsonutil import parse_document
from evident.cli import _load_masses
from evident.errors import EvidentError, ParseError
from evident.routing import MAX_QUERY_DEPTH

DATA = Path(__file__).parent / "data"

SCENARIO = json.loads((DATA / "lake_tower.json").read_text())
QUERY = {
    "op": "and",
    "children": [
        {"op": "atom", "name": "altitude"},
        {"op": "or", "children": [{"op": "atom", "name": "terrain"}, {"op": "atom", "name": "wind"}]},
    ],
}
SOURCES = [
    {"id": "dma", "priority": 0, "schema": {"altitude": 0.9, "terrain": 0.8}},
    {"id": "intel", "priority": 1, "schema": {"terrain": 0.7}},
]
MASSES = {
    "frame": ["lake", "tower"],
    "masses": [
        [{"atoms": ["lake"], "mass": 0.7}, {"atoms": ["lake", "tower"], "mass": 0.3}],
        [{"atoms": ["tower"], "mass": 0.6}, {"atoms": ["lake", "tower"], "mass": 0.4}],
    ],
}

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(["lake", "tower", "and", "or", "atom", "0.5", 10**400])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _replace(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], value)
    return copy


@st.composite
def mutated(draw, doc):
    """``doc`` with a few subtrees replaced, dropped or nested 250 ``and`` nodes deep."""
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["replace", "drop", "nest"]))
        paths = [p for p in _paths(doc) if action != "nest" or isinstance(_at(doc, p), dict)]
        path = draw(st.sampled_from(paths or [()]))
        if action == "replace":
            doc = _replace(doc, path, draw(json_values))
        elif action == "drop" and path:
            container, key = _at(doc, path[:-1]), path[-1]
            if isinstance(container, dict):
                kept = {k: v for k, v in container.items() if k != key}
            else:
                kept = container[:key] + container[key + 1 :]
            doc = _replace(doc, path[:-1], kept)
        elif action == "nest":
            node = _at(doc, path)
            for _ in range(250):
                node = {"op": "and", "children": [node, {"op": "atom", "name": "wind"}]}
            doc = _replace(doc, path, node)
    return doc


@st.composite
def documents(draw, valid):
    """Text of an arbitrary or mutated document, perhaps cut short or deeply nested."""
    doc = draw(json_values | mutated(valid))
    text = json.dumps(doc)
    action = draw(st.sampled_from(["keep", "cut", "deep"]))
    if action == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif action == "deep":
        depth = draw(st.sampled_from([1, 500, 100_000]))
        text = "[" * depth + text + "]" * depth
    return text


def _routed(text):
    # a loaded query must also print, as `evident route` prints its plan
    return repr(load_query(text))


@pytest.mark.parametrize(
    "load, valid",
    [
        (load_scenario, SCENARIO),
        (_routed, QUERY),
        (load_sources, SOURCES),
        (_load_masses, MASSES),
    ],
    ids=["scenario", "query", "sources", "masses"],
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_loader_raises_only_evident_errors(load, valid, data):
    load(json.dumps(valid))
    text = data.draw(documents(valid))
    try:
        load(text)
    except EvidentError:
        pass


def test_parse_errors_for_nesting_and_digit_limits():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_document("[" * 100_000)
    # json.loads raises a plain ValueError past the interpreter's digit limit
    with pytest.raises(ParseError, match="digits"):
        parse_document("1" * 5000)
    with pytest.raises(ParseError, match="float range"):
        load_scenario('{"frame": ["lake"], "window": 1%s}' % ("0" * 400))
    # a float literal past the float range parses as inf
    for key in ("window", "step"):
        with pytest.raises(ParseError, match="float range"):
            load_scenario('{"frame": ["lake"], "%s": 1e400}' % key)
    with pytest.raises(ParseError, match="float range"):
        load_sources('[{"id": "a", "priority": 1, "schema": {"wind": 1e400}}]')


def _chain(levels):
    node = {"op": "atom", "name": "wind"}
    for _ in range(levels):
        node = {"op": "and", "children": [node, {"op": "atom", "name": "terrain"}]}
    return json.dumps(node)


def test_query_depth_is_capped():
    deepest = load_query(_chain(MAX_QUERY_DEPTH - 1))
    assert repr(deepest).count("and(") == MAX_QUERY_DEPTH - 1
    with pytest.raises(ParseError, match=f"deeper than {MAX_QUERY_DEPTH}"):
        load_query(_chain(MAX_QUERY_DEPTH))
