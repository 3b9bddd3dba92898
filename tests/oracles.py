"""Brute-force reference implementations used to check the package.

Everything here works on frozensets of atom names (or exact rationals),
never on the package's bitmask/array representation, so each check is an
independent route to the same value. The exceptions are
:func:`grouped_products_oracle`, which pins a kernel's exact output arrays,
and :func:`decide_oracle`, the decision rule as a loop over the atoms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from evident import (
    And,
    Atom,
    CombinationReport,
    DecisionStatus,
    Frame,
    Implies,
    MassFunction,
    Or,
)
from evident.decide import HIGH_CONFLICT, TIE, TIE_TOL


def powerset(atoms):
    """All subsets of ``atoms`` as frozensets, empty set first."""
    atoms = tuple(atoms)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(atoms, r) for r in range(len(atoms) + 1)
        )
    ]


def focal_map(m: MassFunction) -> dict[frozenset, float]:
    """A mass function as {frozenset of atom names: mass}."""
    return {frozenset(p.atoms()): mass for p, mass in m.focals()}


def bel_oracle(focals: dict[frozenset, float], a: frozenset) -> float:
    """Belief by direct enumeration: total mass of non-empty focals inside a."""
    return math.fsum(m for h, m in focals.items() if h and h <= a)


def pl_oracle(focals: dict[frozenset, float], a: frozenset) -> float:
    """Plausibility by direct enumeration: total mass of focals meeting a."""
    return math.fsum(m for h, m in focals.items() if h & a)


def combine_oracle(
    m1: dict[frozenset, float], m2: dict[frozenset, float]
) -> tuple[dict[frozenset, float], float]:
    """Pairwise-product orthogonal sum over frozensets.

    Returns (normalized focal map, conflict). Raises ZeroDivisionError on
    total conflict, which callers are expected to rule out.
    """
    raw: dict[frozenset, float] = {}
    conflict = 0.0
    for h1, v1 in m1.items():
        for h2, v2 in m2.items():
            inter = h1 & h2
            if inter:
                raw[inter] = raw.get(inter, 0.0) + v1 * v2
            else:
                conflict += v1 * v2
    return {h: v / (1.0 - conflict) for h, v in raw.items()}, conflict


def fold_oracle(
    maps: list[dict[frozenset, float]],
) -> tuple[dict[frozenset, float], float]:
    """Orthogonal sum of many focal maps, normalized once at the end.

    Folds the unnormalized conjunctive products over frozensets and divides
    by the surviving total only after the last input, so no per-step
    rescaling can compound. Returns (normalized focal map, cumulative
    conflict); the caller rules out total conflict.
    """
    acc = dict(maps[0])
    for m in maps[1:]:
        nxt: dict[frozenset, float] = {}
        for h1, v1 in acc.items():
            for h2, v2 in m.items():
                inter = h1 & h2
                if inter:
                    nxt[inter] = nxt.get(inter, 0.0) + v1 * v2
        acc = nxt
    kept = math.fsum(acc.values())
    return {h: v / kept for h, v in acc.items()}, 1.0 - kept


def grouped_products_oracle(bits1, w1, bits2, w2):
    """Pairwise intersection products grouped by sorting, as ``np.unique`` does.

    The one array-level reference here: it pins the exact arrays, bit for
    bit, that ``_kernels.combine_products`` must return on either grouping.
    """
    inter = (bits1[:, None] & bits2[None, :]).ravel()
    prod = (w1[:, None] * w2[None, :]).ravel()
    group_bits, inverse = np.unique(inter, return_inverse=True)
    return group_bits, np.bincount(inverse, weights=prod, minlength=group_bits.shape[0])


def decide_oracle(report: CombinationReport, threshold: float = 0.95):
    """(status, reason, hypothesis, ranking) of the decision rule, one atom at a time.

    The intervals are each singleton's ``interval``; the ranking is Python's
    stable sort by descending belief, and the rule is read off it with
    ``any``/``all``.
    """
    m = report.result
    intervals = [(a, m.interval(m.frame.singleton(a))) for a in m.frame.atoms]
    ranking = tuple(sorted(intervals, key=lambda pair: -pair[1].support))
    (best_atom, best), rivals = ranking[0], ranking[1:]
    if report.conflict >= threshold:
        return DecisionStatus.CONFLICTED, HIGH_CONFLICT, None, ranking
    if any(iv.support >= best.support - TIE_TOL for _, iv in rivals):
        return DecisionStatus.CONFLICTED, TIE, None, ranking
    dominant = all(best.support > iv.plausibility for _, iv in rivals)
    status = DecisionStatus.DECIDED if dominant else DecisionStatus.LEANING
    return status, None, best_atom, ranking


def random_mass(rng: random.Random, frame: Frame, max_focals: int = 6) -> MassFunction:
    """A random normalized mass function over non-empty propositions."""
    n = len(frame)
    full = (1 << n) - 1
    k = rng.randint(1, min(max_focals, full))
    bits = rng.sample(range(1, full + 1), k)
    weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
    total = math.fsum(weights)
    entries = [
        (frame.from_bits(b), w / total) for b, w in zip(bits, weights)
    ]
    return MassFunction(frame, entries)


def random_bayesian(rng: random.Random, frame: Frame) -> MassFunction:
    weights = [rng.uniform(0.05, 1.0) for _ in frame.atoms]
    total = math.fsum(weights)
    entries = [(frame.singleton(a), w / total) for a, w in zip(frame.atoms, weights)]
    return MassFunction(frame, entries)


# -- query-tree oracles ---------------------------------------------------------


def truth_table_translate(expr, frame: Frame, atom_sets: dict[str, frozenset]) -> frozenset:
    """Evaluate a logical expression atom-by-atom over the frame.

    An attribute is "true at" a frame atom when that atom belongs to its
    mapped set; the translated proposition is exactly the atoms where the
    whole expression comes out true.
    """

    def holds(node, at: str) -> bool:
        if isinstance(node, Atom):
            return at in atom_sets[node.name]
        if isinstance(node, And):
            return all(holds(c, at) for c in node.children)
        if isinstance(node, Or):
            return any(holds(c, at) for c in node.children)
        if isinstance(node, Implies):
            return (not holds(node.lhs, at)) or holds(node.rhs, at)
        raise TypeError(node)

    return frozenset(a for a in frame.atoms if holds(expr, a))


def answerability_oracle(expr, schema: dict[str, Fraction]) -> tuple[Fraction, Fraction]:
    """Exact-rational recursion for the answerability interval."""
    if isinstance(expr, Atom):
        if expr.name in schema:
            return Fraction(schema[expr.name]), Fraction(1)
        return Fraction(0), Fraction(0)
    if isinstance(expr, And):
        s, p = Fraction(1), Fraction(1)
        for child in expr.children:
            cs, cp = answerability_oracle(child, schema)
            s *= cs
            p *= cp
        return s, p
    if isinstance(expr, Or):
        ms, mp = Fraction(1), Fraction(1)
        for child in expr.children:
            cs, cp = answerability_oracle(child, schema)
            ms *= 1 - cs
            mp *= 1 - cp
        return 1 - ms, 1 - mp
    raise TypeError(expr)


def _expr_atoms(expr) -> frozenset:
    if isinstance(expr, Atom):
        return frozenset((expr.name,))
    return frozenset().union(*(_expr_atoms(c) for c in expr.children))


def _fully_answers(schema: dict[str, Fraction], expr) -> bool:
    return all(schema.get(a, Fraction(0)) > 0 for a in _expr_atoms(expr))


def fragments_oracle(expr, schemas: list[dict[str, Fraction]]):
    """Independent recomputation of the maximal-fragment split.

    Returns (fragments, unassigned atoms): a sub-tree stays whole when some
    schema can fully answer it, otherwise the walk descends.
    """
    fragments, unassigned = [], []

    def walk(node):
        if any(_fully_answers(s, node) for s in schemas):
            fragments.append(node)
            return
        if isinstance(node, Atom):
            unassigned.append(node)
            return
        for child in node.children:
            walk(child)

    walk(expr)
    return fragments, unassigned


def best_total_by_search(fragments, schemas: list[dict[str, Fraction]]) -> Fraction:
    """Exhaustive search over every (fragment -> source) assignment map.

    Only maps where each chosen source fully answers its fragment are
    admissible; the value of a map is the product of fragment supports.
    """
    if not fragments:
        return Fraction(1)
    options = []
    for frag in fragments:
        feasible = [
            answerability_oracle(frag, s)[0]
            for s in schemas
            if _fully_answers(s, frag)
        ]
        assert feasible, "fragments_oracle only emits answerable fragments"
        options.append(feasible)
    best = Fraction(0)
    for choice in product(*options):
        value = math.prod(choice, start=Fraction(1))
        best = max(best, value)
    return best


# -- float references for routing -------------------------------------------------
#
# The package folds query trees iteratively; these recurse, as the paper states
# the rule, and multiply in the same order, so their floats must agree bit for
# bit. They only serve trees shallow enough for the interpreter's stack.


def bounds_float_oracle(expr, schema: dict[str, float]) -> tuple[float, float]:
    """Answerability (support, plausibility) by direct recursion over floats."""
    if isinstance(expr, Atom):
        if expr.name in schema:
            return schema[expr.name], 1.0
        return 0.0, 0.0
    if isinstance(expr, And):
        s, p = 1.0, 1.0
        for child in expr.children:
            cs, cp = bounds_float_oracle(child, schema)
            s *= cs
            p *= cp
        return s, p
    if isinstance(expr, Or):
        ms, mp = 1.0, 1.0
        for child in expr.children:
            cs, cp = bounds_float_oracle(child, schema)
            ms *= 1.0 - cs
            mp *= 1.0 - cp
        return 1.0 - ms, 1.0 - mp
    raise TypeError(expr)


def decompose_float_oracle(expr, sources):
    """(assignments, total support, unassigned) by the top-down recursive split.

    A sub-tree stays whole when some source has positive weight on every
    atom in it; it goes to the highest support, then lowest priority, then
    lowest id. Otherwise the walk descends; atoms nobody answers are left
    unassigned.
    """
    assignments, supports, unassigned = [], [], []

    def walk(node):
        fits = [
            (src, bounds_float_oracle(node, src.schema)[0])
            for src in sources
            if all(src.schema.get(a, 0.0) > 0.0 for a in _expr_atoms(node))
        ]
        if fits:
            fits.sort(key=lambda pair: (-pair[1], pair[0].priority, pair[0].id))
            assignments.append((node, fits[0][0].id))
            supports.append(fits[0][1])
        elif isinstance(node, Atom):
            unassigned.append(node)
        else:
            for child in node.children:
                walk(child)

    walk(expr)
    return tuple(assignments), math.prod(supports), tuple(unassigned)


def has_implies(expr) -> bool:
    """Whether an implication occurs anywhere in the tree."""
    if isinstance(expr, Implies):
        return True
    if isinstance(expr, Atom):
        return False
    return any(has_implies(child) for child in expr.children)
