"""Frames of discernment and the set algebra on propositions.

A :class:`Frame` fixes an ordered set of atomic hypotheses; a
:class:`Proposition` is a subset of those atoms stored as a bitmask, so all
set operations are single-word bit arithmetic and frames stay capped at 64
atoms. Logical query expressions (and / or / implies over named attributes)
translate onto this algebra via :func:`translate_logical`. The
:class:`EvidentialInterval`, the [support, plausibility] bounds the package
gives a proposition, lives here too, so routing reaches it without NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Iterable, Mapping

from ._jsonutil import number
from .errors import (
    DuplicateAtom,
    EmptyFrame,
    FrameMismatch,
    InvalidInterval,
    InvalidQuery,
    TooManyAtoms,
    UnknownAtom,
    UnmappedAttribute,
)

MAX_ATOMS = 64


class Frame:
    """An ordered, immutable set of distinct atomic hypotheses.

    Atom order is fixed at construction and defines bit positions, so two
    frames are interchangeable exactly when their atom tuples are equal.
    """

    __slots__ = ("atoms", "_index", "_full_bits")

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise EmptyFrame("a frame needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise TooManyAtoms(f"{len(atoms)} atoms exceeds the cap of {MAX_ATOMS}")
        index: dict[str, int] = {}
        for i, name in enumerate(atoms):
            if not isinstance(name, str) or not name:
                raise EmptyFrame(f"atom names must be non-empty strings, got {name!r}")
            if name in index:
                raise DuplicateAtom(f"atom {name!r} appears more than once")
            index[name] = i
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_full_bits", (1 << len(atoms)) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Frame) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"Frame({list(self.atoms)!r})"

    def bit(self, atom: str) -> int:
        """Bit position of ``atom``, raising UnknownAtom for strangers."""
        try:
            return self._index[atom]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownAtom(f"atom {atom!r} is not in frame {list(self.atoms)}") from None

    def proposition(self, atoms: Iterable[str]) -> Proposition:
        """The subset of this frame holding exactly the named atoms."""
        bits = 0
        for name in atoms:
            bits |= 1 << self.bit(name)
        return Proposition(self, bits)

    def singleton(self, atom: str) -> Proposition:
        return Proposition(self, 1 << self.bit(atom))

    def empty(self) -> Proposition:
        return Proposition(self, 0)

    def full(self) -> Proposition:
        """The whole-frame statement (every atom)."""
        return Proposition(self, self._full_bits)

    def from_bits(self, bits: int) -> Proposition:
        """Wrap a raw bitmask; bits outside the frame are rejected."""
        return Proposition(self, bits)


@dataclass(frozen=True)
class Proposition:
    """A subset of one frame's atoms, as a bitmask over its atom positions."""

    frame: Frame
    bits: int

    def __post_init__(self):
        if type(self.bits) is not int:
            raise UnknownAtom(f"a bitmask must be an int, got {type(self.bits).__name__}")
        if not 0 <= self.bits <= self.frame._full_bits:
            raise UnknownAtom(f"bitmask {self.bits:#x} has bits outside the frame")

    # -- set algebra ---------------------------------------------------------

    def complement(self) -> Proposition:
        """Set complement relative to the frame."""
        return Proposition(self.frame, self.bits ^ self.frame._full_bits)

    def intersect(self, other: Proposition) -> Proposition:
        self._require_same_frame(other)
        return Proposition(self.frame, self.bits & other.bits)

    def union(self, other: Proposition) -> Proposition:
        self._require_same_frame(other)
        return Proposition(self.frame, self.bits | other.bits)

    def is_subset(self, other: Proposition) -> bool:
        self._require_same_frame(other)
        return self.bits & ~other.bits == 0

    def __and__(self, other: Proposition) -> Proposition:
        return self.intersect(other)

    def __or__(self, other: Proposition) -> Proposition:
        return self.union(other)

    def __invert__(self) -> Proposition:
        return self.complement()

    # -- inspection ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == self.frame._full_bits

    def atoms(self) -> tuple[str, ...]:
        """Member atom names in frame order."""
        return tuple(a for i, a in enumerate(self.frame.atoms) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, atom: str) -> bool:
        return bool(self.bits >> self.frame.bit(atom) & 1)

    def __repr__(self) -> str:
        return "{" + ",".join(self.atoms()) + "}"

    def _require_same_frame(self, other: Proposition) -> None:
        if self.frame != other.frame:
            raise FrameMismatch(
                f"propositions belong to different frames: "
                f"{list(self.frame.atoms)} vs {list(other.frame.atoms)}"
            )


@dataclass(frozen=True)
class EvidentialInterval:
    """[support, plausibility] bounds on the likelihood of a proposition."""

    support: float
    plausibility: float

    def __post_init__(self):
        support = number(self.support, "interval support", InvalidInterval, 0.0, 1.0)
        number(self.plausibility, "interval plausibility", InvalidInterval, support, 1.0)

    @property
    def ignorance(self) -> float:
        """Interval width: how much the evidence leaves undetermined."""
        return self.plausibility - self.support

    def __iter__(self):
        return iter((self.support, self.plausibility))

    def __repr__(self) -> str:
        return f"[{self.support}, {self.plausibility}]"


# -- query expressions --------------------------------------------------------


class QueryExpr:
    """Base class for logical query trees over named attributes."""

    __slots__ = ()
    _label = ""

    def attributes(self) -> tuple[str, ...]:
        """All attribute names in the tree, first-occurrence order."""
        # the atoms' tokens are the ones that carry a name, left to right
        return tuple(dict.fromkeys(v for _, v in self._tokens() if isinstance(v, str)))

    def _tokens(self) -> tuple:
        """The tree in post-order: (type, name) per atom, (type, arity) per connective."""
        tokens = []

        def visit(node, kids):
            tokens.append((type(node), node.name if isinstance(node, Atom) else len(kids)))

        _fold(self, visit)
        return tuple(tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryExpr):
            return NotImplemented
        return self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(self._tokens())

    def __repr__(self) -> str:
        return _fold(self, lambda node, kids: (
            node.name if isinstance(node, Atom) else f"{node._label}({','.join(kids)})"
        ))


@dataclass(frozen=True, repr=False)
class Atom(QueryExpr):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InvalidQuery("attribute names must be non-empty strings")


class _Connective(QueryExpr):
    __slots__ = ("children",)

    def __init__(self, *children: QueryExpr):
        if len(children) < 2:
            raise InvalidQuery(f"{self._label} needs at least two children")
        if not all(isinstance(c, QueryExpr) for c in children):
            raise InvalidQuery("children must be query expressions")
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class And(_Connective):
    _label = "and"


class Or(_Connective):
    _label = "or"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(QueryExpr):
    lhs: QueryExpr
    rhs: QueryExpr
    _label = "implies"

    def __post_init__(self):
        if not isinstance(self.lhs, QueryExpr) or not isinstance(self.rhs, QueryExpr):
            raise InvalidQuery("implies takes two query expressions")


def _fold(expr: QueryExpr, visit: Callable[[QueryExpr, list], Any]) -> Any:
    """Fold a query tree bottom-up: ``visit(node, child_values)``, children first.

    Children are folded left to right, so leaves are visited in reading
    order. An explicit stack stands in for recursion, so any depth folds.
    This is the one place that knows each node type's children.
    """
    values: list = []
    stack: list = [expr]  # nodes to expand, and (node, arity) once expanded
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, arity = node
            args = values[-arity:]
            del values[-arity:]
            values.append(visit(node, args))
            continue
        if isinstance(node, Atom):
            values.append(visit(node, []))
            continue
        if isinstance(node, _Connective):
            kids = node.children
        elif isinstance(node, Implies):
            kids = (node.lhs, node.rhs)
        else:
            raise InvalidQuery(f"unknown query node {type(node).__name__}")
        stack.append((node, len(kids)))
        stack.extend(reversed(kids))
    return values[0]


def translate_logical(
    expr: QueryExpr, frame: Frame, atom_map: Mapping[str, Proposition]
) -> Proposition:
    """Translate a logical expression into a proposition over ``frame``.

    Conjunction becomes intersection, disjunction union, and implication its
    material reading (complement of the antecedent united with the
    consequent). Every attribute must be mapped to a proposition on the given
    frame.
    """

    def visit(node, kids):
        if isinstance(node, Atom):
            try:
                prop = atom_map[node.name]
            except KeyError:
                raise UnmappedAttribute(f"attribute {node.name!r} has no mapping") from None
            if not isinstance(prop, Proposition):
                raise UnmappedAttribute(f"mapping for {node.name!r} is not a proposition")
            if prop.frame != frame:
                raise FrameMismatch(f"mapping for {node.name!r} targets a different frame")
            return prop
        if isinstance(node, And):
            return reduce(Proposition.intersect, kids, frame.full())
        if isinstance(node, Or):
            return reduce(Proposition.union, kids, frame.empty())
        lhs, rhs = kids  # an implication
        return lhs.complement().union(rhs)

    return _fold(expr, visit)
