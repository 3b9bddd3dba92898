"""Seeded input documents for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a JSON-ready object in
one of the formats the package reads (scenario, masses, query, sources). The
program only ever sees the serialised documents, never the seed.
"""

from __future__ import annotations

import json
import random


def atom_names(n: int) -> list[str]:
    return [f"a{i:02d}" for i in range(n)]


def replay_scenario(
    rng: random.Random,
    *,
    atoms: int = 16,
    sensors: int = 10,
    reports: int = 400,
    interval: float = 0.5,
    window: float = 20.0,
    discount_rate: float = 1.0,
) -> dict:
    """A sensor stream that mostly backs one target atom, which moves now and then.

    One report every ``interval`` seconds from a random sensor. A focus holds
    1 to 5 atoms; about 80 % of foci include the current target, which moves
    to another atom with probability 0.02 per report. Degrees are U(0.05, 0.6).
    """
    names = atom_names(atoms)
    target = rng.choice(names)
    out = []
    for i in range(reports):
        if rng.random() < 0.02:
            target = rng.choice([a for a in names if a != target])
        size = rng.randint(1, min(5, atoms))
        if rng.random() < 0.8:
            others = rng.sample([a for a in names if a != target], size - 1)
            focus = [target] + others
        else:
            focus = rng.sample(names, size)
        out.append(
            {
                "sensor": f"s{rng.randrange(sensors)}",
                "t": i * interval,
                "focus": sorted(focus),
                "degree": rng.uniform(0.05, 0.6),
            }
        )
    return {
        "frame": names,
        "window": window,
        "step": 1.0,
        "discount_rate": discount_rate,
        "conflict_threshold": 0.95,
        "reports": out,
    }


def _normalised(weights: list[float]) -> list[float]:
    total = sum(weights)
    masses = [w / total for w in weights]
    # put the rounding residue on the largest entry so the total is 1 to the ulp
    big = max(range(len(masses)), key=masses.__getitem__)
    masses[big] += 1.0 - sum(masses)
    return masses


def dense_masses(
    rng: random.Random,
    *,
    atoms: int = 16,
    count: int = 8,
    focals: int = 64,
    size: int = 7,
    ignorance: float = 0.3,
) -> dict:
    """``count`` mass functions of ``focals`` distinct focals each.

    Every focal but the whole frame holds ``size`` random atoms; a fixed
    size keeps the fused focal count, and so the work, nearly the same from
    seed to seed. The whole frame carries ``ignorance`` of each function's
    mass, which keeps the fold clear of total conflict.
    """
    names = atom_names(atoms)
    full = frozenset(names)
    out = []
    for _ in range(count):
        sets: set[frozenset] = {full}
        while len(sets) < focals:
            sets.add(frozenset(rng.sample(names, size)))
        ordered = sorted(sets - {full}, key=sorted)
        weights = _normalised([rng.uniform(0.05, 1.0) for _ in ordered])
        entries = [
            {"atoms": sorted(s), "mass": (1.0 - ignorance) * w}
            for s, w in zip(ordered, weights)
        ]
        entries.append({"atoms": names, "mass": ignorance})
        out.append(entries)
    return {"frame": names, "masses": out}


def small_masses(rng: random.Random) -> dict:
    """A short fold on a 6-atom frame for ``evident combine``."""
    return dense_masses(rng, atoms=6, count=4, focals=4, size=3, ignorance=0.2)


def _query(rng: random.Random, attrs: list[str], depth: int) -> dict:
    if depth == 0 or rng.random() < 0.3:
        return {"op": "atom", "name": rng.choice(attrs)}
    width = rng.randint(2, 3)
    return {
        "op": rng.choice(("and", "or")),
        "children": [_query(rng, attrs, depth - 1) for _ in range(width)],
    }


def route_documents(rng: random.Random) -> tuple[dict, list]:
    """A query tree over 8 attributes and 6 sources with partial schemas."""
    attrs = [f"attr{i}" for i in range(8)]
    query = {
        "op": "and",
        "children": [_query(rng, attrs, 2) for _ in range(3)],
    }
    sources = []
    for i in range(6):
        chosen = rng.sample(attrs, rng.randint(5, 8))
        sources.append(
            {
                "id": f"src{i}",
                "priority": rng.randint(0, 3),
                "schema": {a: rng.uniform(0.1, 1.0) for a in sorted(chosen)},
            }
        )
    return query, sources


def dumps(doc) -> str:
    return json.dumps(doc, indent=None, separators=(",", ":")) + "\n"
