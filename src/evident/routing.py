"""Belief-driven data-source selection, query decomposition, and views.

Each registered source advertises its schema as per-attribute capability
weights; the belief that a query can be processed against it is computed
recursively over the query tree (conjunction multiplies supports,
disjunction co-multiplies), yielding an evidential interval per source.
Polling keeps the sources the query remains plausible against, decomposition
splits the query into maximal fragments each source can fully answer, and a
view merges same-schema sources into one stronger virtual source.

No query syntax for any concrete database engine is generated here; the
output of routing is a plan, not SQL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ._jsonutil import number, of_type, parse_document, require
from .errors import (
    DegreeOutOfRange,
    DuplicateSourceId,
    EmptyShortlist,
    ImpliesNotRoutable,
    InvalidSource,
    ParseError,
    SchemaMismatch,
    TooFewParts,
    WrongType,
)
from .frames import And, Atom, EvidentialInterval, Or, QueryExpr, _fold

# deeper query documents are refused: the loader (_query_node) recurses once
# per level, while trees built in the library may be any depth
MAX_QUERY_DEPTH = 100


@dataclass(frozen=True, eq=True)
class SourceDescriptor:
    """One database or knowledge source: id, capability weights, priority."""

    id: str
    schema: Mapping[str, float]
    priority: int = 0

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidSource("source id must be a non-empty string")
        if not isinstance(self.schema, Mapping):
            raise InvalidSource(f"schema of source {self.id!r} must be a mapping")
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise InvalidSource(f"priority of source {self.id!r} must be an integer")
        schema = dict(self.schema)
        for attr, weight in schema.items():
            if not isinstance(attr, str) or not attr:
                raise InvalidSource(f"blank attribute name in source {self.id!r}")
            name = f"weight of {attr!r} in source {self.id!r}"
            schema[attr] = number(weight, name, InvalidSource, 0.0, 1.0)
        object.__setattr__(self, "schema", schema)


@dataclass(frozen=True)
class RoutePlan:
    """Where each fragment of a query should run.

    ``assignments`` pair disjoint sub-expressions with the source chosen for
    them; recomposing the fragments (plus ``unassigned``) in place
    reconstructs the original query. ``total_support`` is the product of the
    assigned fragments' supports, a degree in [0, 1].
    """

    assignments: tuple[tuple[QueryExpr, str], ...]
    total_support: float
    unassigned: tuple[QueryExpr, ...]

    def __post_init__(self):
        for pair in of_type(self.assignments, tuple, "plan assignments"):
            if not (
                type(pair) is tuple
                and len(pair) == 2
                and isinstance(pair[0], QueryExpr)
                and isinstance(pair[1], str)
            ):
                raise WrongType("plan assignments must be (query fragment, source id) pairs")
        support = number(self.total_support, "plan total support", DegreeOutOfRange, 0.0, 1.0)
        object.__setattr__(self, "total_support", support)
        for node in of_type(self.unassigned, tuple, "unassigned fragments"):
            of_type(node, QueryExpr, "unassigned fragment")


def _bounds(node: QueryExpr, kids: Sequence[tuple], schema: Mapping[str, float]) -> tuple:
    """(support, plausibility, fully answerable) of ``node`` from its children's.

    A node is fully answerable when every atom under it has positive weight.
    """
    if isinstance(node, Atom):
        weight = schema.get(node.name)
        if weight is None:
            return 0.0, 0.0, False
        return weight, 1.0, weight > 0.0
    answerable = all(full for _, _, full in kids)
    if isinstance(node, And):
        support, plausibility = 1.0, 1.0
        for s, p, _ in kids:
            support *= s
            plausibility *= p
        return support, plausibility, answerable
    if isinstance(node, Or):
        miss_s, miss_p = 1.0, 1.0
        for s, p, _ in kids:
            miss_s *= 1.0 - s
            miss_p *= 1.0 - p
        return 1.0 - miss_s, 1.0 - miss_p, answerable
    raise ImpliesNotRoutable(
        "rewrite implications (e.g. via translate_logical) before routing"
    )


def answerability(query: QueryExpr, src: SourceDescriptor) -> EvidentialInterval:
    """Evidential interval for "this source can process the query".

    An attribute in the schema contributes a simple support of its
    capability weight; a missing attribute is certainly unanswerable.
    Conjunctions combine child supports by product (independence across
    attributes), disjunctions by co-product. Implications are not routable
    and must be rewritten by the caller.
    """
    schema = of_type(src, SourceDescriptor, "source").schema
    support, plausibility, _ = _fold(query, lambda node, kids: _bounds(node, kids, schema))
    return EvidentialInterval(support, plausibility)


def poll(
    query: QueryExpr,
    sources: Iterable[SourceDescriptor],
    threshold: float = 0.5,
) -> list[tuple[str, EvidentialInterval]]:
    """Shortlist the sources the query can plausibly run against.

    Keeps sources whose answerability plausibility reaches ``threshold`` and
    discards all others; ordered by support descending, then priority, then
    id.
    """
    threshold = number(threshold, "poll threshold", DegreeOutOfRange, 0.0, 1.0)
    scored = []
    for src in sources:
        interval = answerability(query, src)
        if interval.plausibility >= threshold:
            scored.append((src, interval))
    scored.sort(key=lambda pair: (-pair[1].support, pair[0].priority, pair[0].id))
    return [(src.id, interval) for src, interval in scored]


def decompose(query: QueryExpr, shortlist: Sequence[SourceDescriptor]) -> RoutePlan:
    """Split a query into maximal fragments single sources can answer.

    Walking from the root, any sub-tree some shortlisted source fully
    answers (positive weight on every atom in it) stays whole and goes to
    the source with the highest support for it, ties broken by priority
    then id. Atoms no source answers are reported unassigned. The plan's
    total support multiplies the assigned fragments' supports.
    """
    shortlist = [
        of_type(src, SourceDescriptor, "shortlisted source")
        for src in of_type(shortlist, Iterable, "shortlist")
    ]
    if not shortlist:
        raise EmptyShortlist("decompose needs at least one candidate source")
    # (fragment, source id or None when unassigned, support), left to right
    plan: list[tuple[QueryExpr, str | None, float]] = []

    def visit(node, kids):
        # kids: (start of the child's fragments in plan, its bounds per source)
        start = kids[0][0] if kids else len(plan)
        bounds = [
            _bounds(node, [kid[1][i] for kid in kids], src.schema)
            for i, src in enumerate(shortlist)
        ]
        fits = [(src, b[0]) for src, b in zip(shortlist, bounds) if b[2]]
        if fits:
            # a whole sub-tree replaces the fragments found under it
            best, support = min(fits, key=lambda pair: (-pair[1], pair[0].priority, pair[0].id))
            del plan[start:]
            plan.append((node, best.id, support))
        elif isinstance(node, Atom):
            plan.append((node, None, 0.0))
        return start, bounds

    _fold(query, visit)
    return RoutePlan(
        assignments=tuple((node, sid) for node, sid, _ in plan if sid is not None),
        total_support=math.prod(support for _, sid, support in plan if sid is not None),
        unassigned=tuple(node for node, sid, _ in plan if sid is None),
    )


def make_view(name: str, parts: Sequence[SourceDescriptor]) -> SourceDescriptor:
    """Merge same-schema sources into one virtual source.

    The view answers an attribute as well as its best member does (max
    weight) and inherits the most preferred priority.
    """
    parts = [of_type(p, SourceDescriptor, "view part") for p in of_type(parts, Iterable, "parts")]
    if len(parts) < 2:
        raise TooFewParts("a view needs at least two member sources")
    shared = set(parts[0].schema)
    everything = set()
    for part in parts:
        everything |= set(part.schema)
        shared &= set(part.schema)
    if everything != shared:
        raise SchemaMismatch(everything - shared)
    weights = {
        attr: max(part.schema[attr] for part in parts) for attr in sorted(shared)
    }
    return SourceDescriptor(
        id=name,
        schema=weights,
        priority=min(part.priority for part in parts),
    )


# -- file formats ---------------------------------------------------------------


def load_sources(text: str) -> list[SourceDescriptor]:
    """Parse a sources file: a JSON list of {id, priority, schema} objects."""
    data = parse_document(text)
    require(isinstance(data, list), "sources file must be a JSON list")
    out: list[SourceDescriptor] = []
    seen: set[str] = set()
    for obj in data:
        require(isinstance(obj, dict), "each source must be a JSON object")
        require(isinstance(obj.get("id"), str), "source needs a string 'id'")
        require(isinstance(obj.get("schema"), dict), "source needs a 'schema' object")
        schema = {
            attr: number(weight, f"weight of {attr!r} in source {obj['id']!r}")
            for attr, weight in obj["schema"].items()
        }
        if obj["id"] in seen:
            raise DuplicateSourceId(f"source id {obj['id']!r} appears twice")
        seen.add(obj["id"])
        out.append(SourceDescriptor(id=obj["id"], schema=schema, priority=obj.get("priority", 0)))
    return out


def load_query(text: str) -> QueryExpr:
    """Parse a query file: nested {op, children?, name?} objects.

    A query nested more than ``MAX_QUERY_DEPTH`` nodes deep is refused.
    """
    return _query_node(parse_document(text), 1)


def _query_node(obj, depth: int) -> QueryExpr:
    require(depth <= MAX_QUERY_DEPTH, f"query nested deeper than {MAX_QUERY_DEPTH} levels")
    require(isinstance(obj, dict), "query node must be a JSON object")
    op = obj.get("op")
    if op == "atom":
        require(isinstance(obj.get("name"), str), "atom node needs a string 'name'")
        return Atom(obj["name"])
    if op in ("and", "or"):
        children = obj.get("children")
        require(isinstance(children, list), f"'{op}' node needs a 'children' list")
        nodes = [_query_node(child, depth + 1) for child in children]
        require(len(nodes) >= 2, f"'{op}' node needs at least two children")
        return And(*nodes) if op == "and" else Or(*nodes)
    raise ParseError(f"unknown query op {op!r} (expected and/or/atom)")
