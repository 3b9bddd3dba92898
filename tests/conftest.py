from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from evident import And, Atom, Frame, Implies, MassFunction, Or

ATOM_POOL = ("lake", "tower", "ridge", "clear", "road", "marsh", "pylon", "creek")


@pytest.fixture
def lt_frame() -> Frame:
    return Frame(["lake", "tower"])


@pytest.fixture
def ltr_frame() -> Frame:
    return Frame(["lake", "tower", "ridge"])


@st.composite
def frames(draw, min_atoms: int = 1, max_atoms: int = 5) -> Frame:
    n = draw(st.integers(min_atoms, max_atoms))
    return Frame(ATOM_POOL[:n])


@st.composite
def mass_on(draw, frame: Frame, max_focals: int = 6, with_ignorance: bool = False):
    """A random normalized mass function over the given frame.

    ``with_ignorance`` reserves some mass for the whole frame, which keeps
    any combination chain clear of total conflict.
    """
    full = (1 << len(frame)) - 1
    k = draw(st.integers(1, min(max_focals, full)))
    bits = draw(
        st.lists(st.integers(1, full), min_size=k, max_size=k, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
            min_size=k,
            max_size=k,
        )
    )
    total = math.fsum(weights)
    entries = [(frame.from_bits(b), w / total) for b, w in zip(bits, weights)]
    if with_ignorance:
        reserved = draw(st.floats(0.05, 0.4, allow_nan=False))
        entries = [(p, (1.0 - reserved) * w) for p, w in entries]
        entries.append((frame.full(), reserved))
    return MassFunction(frame, entries)


@st.composite
def masses(draw, max_atoms: int = 5, max_focals: int = 6):
    """(frame, mass function) pairs with a normalized random focal set."""
    frame = draw(frames(max_atoms=max_atoms))
    return frame, draw(mass_on(frame, max_focals=max_focals))


@st.composite
def mass_and_prop(draw, max_atoms: int = 5, max_focals: int = 6):
    """(frame, mass function, proposition) with the proposition on-frame."""
    frame, m = draw(masses(max_atoms=max_atoms, max_focals=max_focals))
    bits = draw(st.integers(0, (1 << len(frame)) - 1))
    return frame, m, frame.from_bits(bits)


def query_trees(names, max_leaves: int = 8, implies: bool = True, max_arity: int = 3):
    """Random query trees over attribute ``names``: and / or, optionally implies."""

    def branches(kids):
        options = [
            st.lists(kids, min_size=2, max_size=max_arity).map(lambda cs: And(*cs)),
            st.lists(kids, min_size=2, max_size=max_arity).map(lambda cs: Or(*cs)),
        ]
        if implies:
            options.append(st.tuples(kids, kids).map(lambda lr: Implies(*lr)))
        return st.one_of(options)

    return st.recursive(st.sampled_from(names).map(Atom), branches, max_leaves=max_leaves)
