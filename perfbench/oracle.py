"""Reference computations made apart from the program, and the output checks.

Nothing here imports the package. A mass function is a dict from frozensets
of atom names to floats; the orthogonal sum multiplies every pair of focals,
pools the products on the intersection and adds each pool with
``math.fsum``; normalisation happens once, at the end of a fold. Routing
intervals are exact rationals. The checks read the program's printed output
and raise :class:`CheckFailed` on the first disagreement.
"""

from __future__ import annotations

import functools
import math
import re
from collections import defaultdict
from fractions import Fraction

# printed reals carry six decimals: half a unit of the last digit plus slack
# for float rounding in either computation
PRINT_TOL = 1e-6
# in-process results are compared at full precision
EXACT_TOL = 1e-9
# grid slack, as in the scenario format's definition of the step grid
GRID_EPS = 1e-9


class CheckFailed(Exception):
    """The program's output disagrees with the reference computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _parses(check):
    """Report output that does not even parse as a failed check."""

    @functools.wraps(check)
    def checked(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"unparsable output: {type(exc).__name__}: {exc}") from None

    return checked


# -- evidence ------------------------------------------------------------------


def fold(masses: list[dict]) -> tuple[dict, float]:
    """Orthogonal sum of a list of focal maps, left to right.

    Returns (normalised focal map, total conflict). Conflict is the mass the
    unnormalised conjunctive combination puts on the empty set.
    """
    acc = dict(masses[0])
    for m in masses[1:]:
        pools: dict[frozenset, list[float]] = defaultdict(list)
        for h1, v1 in acc.items():
            for h2, v2 in m.items():
                pools[h1 & h2].append(v1 * v2)
        pools.pop(frozenset(), None)
        acc = {h: math.fsum(vs) for h, vs in pools.items()}
    kept = math.fsum(acc.values())
    if kept == 0.0:
        return {}, 1.0
    return {h: v / kept for h, v in acc.items()}, 1.0 - kept


def bel_pl(focals: dict, atom: str) -> tuple[float, float]:
    """Belief and plausibility of one atom."""
    bel = focals.get(frozenset((atom,)), 0.0)
    pl = math.fsum(v for h, v in focals.items() if atom in h)
    return bel, pl


def doc_masses(doc: dict) -> list[dict]:
    """The focal maps of a masses document (duplicate sets summed)."""
    out = []
    for entries in doc["masses"]:
        pools: dict[frozenset, list[float]] = defaultdict(list)
        for e in entries:
            pools[frozenset(e["atoms"])].append(float(e["mass"]))
        out.append({h: math.fsum(vs) for h, vs in pools.items()})
    return out


def replay(doc: dict) -> list[tuple[float, dict, float]]:
    """Each grid step of a scenario: (time, {atom: (bel, pl)}, conflict)."""
    atoms = list(doc["frame"])
    full = frozenset(atoms)
    window = float(doc.get("window", 10.0))
    step = float(doc.get("step", 1.0))
    rate = float(doc.get("discount_rate", 1.0))
    reports = sorted(
        ((float(r["t"]), r["sensor"], frozenset(r["focus"]), float(r["degree"]))
         for r in doc["reports"]),
        key=lambda r: r[:2],
    )
    rows = []
    if not reports:
        return rows
    t0, t_end = reports[0][0], reports[-1][0]
    k = 0
    while t0 + k * step <= t_end + GRID_EPS:
        t = t0 + k * step
        supports = []
        for time, _, focus, degree in reports:
            if t - window < time <= t:
                s = rate ** (t - time) * degree
                supports.append({focus: s, full: 1.0 - s} if focus != full else {full: 1.0})
        if supports:
            fused, conflict = fold(supports)
        else:
            fused, conflict = {full: 1.0}, 0.0
        if not fused:
            rows.append((t, {a: (0.0, 1.0) for a in atoms}, 1.0))
        else:
            rows.append((t, {a: bel_pl(fused, a) for a in atoms}, conflict))
        k += 1
    return rows


def expected_status(
    intervals: dict, conflict: float, threshold: float, tol: float
) -> tuple[str, str] | None:
    """(status, hypothesis) by the dominance rule, None when within ``tol``.

    Conflict at or past the threshold is high conflict; a shared top belief
    is a tie; otherwise the best-believed atom is decided when its belief
    clears every rival's plausibility and leaning when it does not.
    """
    if abs(conflict - threshold) <= tol:
        return None
    if conflict >= threshold:
        return "conflicted(high_conflict)", ""
    ranked = sorted(intervals.items(), key=lambda kv: -kv[1][0])
    (winner, (best, _)), (_, (second, _)) = ranked[0], ranked[1]
    if best == second:
        return "conflicted(tie)", ""
    if best - second <= tol:
        return None
    margin = best - max(pl for atom, (_, pl) in ranked[1:])
    if abs(margin) <= tol:
        return None
    return ("decided" if margin > 0 else "leaning"), winner


# -- checks on printed output --------------------------------------------------


@_parses
def check_trace(doc: dict, text: str) -> int:
    """Check a CSV trace against the replay oracle; return rows skipped.

    Per-atom bel/pl and conflict must match within ``PRINT_TOL``, the
    intervals must be ordered inside [0, 1], the row count must equal the
    grid length and each status must follow from the oracle's intervals,
    except where a margin is within tolerance.
    """
    atoms = list(doc["frame"])
    threshold = float(doc.get("conflict_threshold", 0.95))
    expected = replay(doc)
    lines = text.split("\n")
    _require(lines[-1] == "", "trace must end with a newline")
    lines = lines[:-1]
    header = ["time"] + [f"{a}_{k}" for a in atoms for k in ("bel", "pl")]
    header += ["conflict", "status", "hypothesis"]
    _require(lines[0] == ",".join(header), f"bad header {lines[0]!r}")
    rows = lines[1:]
    _require(
        len(rows) == len(expected),
        f"{len(rows)} rows for a grid of {len(expected)} steps",
    )
    skipped = 0
    for line, (t, intervals, conflict) in zip(rows, expected):
        cells = line.split(",")
        _require(len(cells) == len(header), f"row has {len(cells)} cells: {line!r}")
        _require(abs(float(cells[0]) - t) <= PRINT_TOL, f"row time {cells[0]} != {t}")
        for j, atom in enumerate(atoms):
            bel, pl = float(cells[1 + 2 * j]), float(cells[2 + 2 * j])
            _require(0.0 <= bel <= pl <= 1.0, f"t={t} {atom}: bad interval [{bel}, {pl}]")
            want_bel, want_pl = intervals[atom]
            _require(
                abs(bel - want_bel) <= PRINT_TOL and abs(pl - want_pl) <= PRINT_TOL,
                f"t={t} {atom}: printed [{bel}, {pl}], oracle [{want_bel}, {want_pl}]",
            )
        got_conflict = float(cells[-3])
        _require(0.0 <= got_conflict <= 1.0, f"t={t}: conflict {got_conflict} outside [0, 1]")
        _require(
            abs(got_conflict - conflict) <= PRINT_TOL,
            f"t={t}: printed conflict {got_conflict}, oracle {conflict}",
        )
        status = expected_status(intervals, conflict, threshold, PRINT_TOL)
        if status is None:
            skipped += 1
            continue
        _require(
            (cells[-2], cells[-1]) == status,
            f"t={t}: printed status {cells[-2:]}, oracle {list(status)}",
        )
    return skipped


def check_fold(doc: dict, conflict: float, focals: dict, intervals: list) -> None:
    """Check an in-process fold (full precision) against the oracle."""
    want, want_conflict = fold(doc_masses(doc))
    _require(
        abs(conflict - want_conflict) <= EXACT_TOL,
        f"conflict {conflict!r}, oracle {want_conflict!r}",
    )
    _require(
        abs(math.fsum(focals.values()) - 1.0) <= EXACT_TOL, "fused masses do not total 1"
    )
    for h in focals.keys() | want.keys():
        _require(
            abs(focals.get(h, 0.0) - want.get(h, 0.0)) <= EXACT_TOL,
            f"mass on {sorted(h)}: {focals.get(h, 0.0)!r}, oracle {want.get(h, 0.0)!r}",
        )
    for atom, (bel, pl) in zip(doc["frame"], intervals):
        want_bel, want_pl = bel_pl(want, atom)
        _require(0.0 <= bel <= pl <= 1.0, f"{atom}: bad interval [{bel}, {pl}]")
        _require(
            abs(bel - want_bel) <= EXACT_TOL and abs(pl - want_pl) <= EXACT_TOL,
            f"{atom}: [{bel!r}, {pl!r}], oracle [{want_bel!r}, {want_pl!r}]",
        )


_FOCAL = re.compile(r"^  \{([^}]*)\}: (\S+)$")
_INTERVAL = re.compile(r"^  (\S+): \[(\S+), (\S+)\]$")


@_parses
def check_combine_output(doc: dict, text: str) -> None:
    """Check ``evident combine`` output: conflict, fused masses, intervals."""
    want, want_conflict = fold(doc_masses(doc))
    lines = text.splitlines()
    _require(lines[0].startswith("conflict: "), f"bad first line {lines[0]!r}")
    conflict = float(lines[0].split(": ", 1)[1])
    _require(0.0 <= conflict <= 1.0, f"conflict {conflict} outside [0, 1]")
    _require(
        abs(conflict - want_conflict) <= PRINT_TOL,
        f"printed conflict {conflict}, oracle {want_conflict}",
    )
    i_mass, i_int = lines.index("mass:"), lines.index("intervals:")
    printed = {}
    for line in lines[i_mass + 1 : i_int]:
        m = _FOCAL.match(line)
        _require(m is not None, f"bad mass line {line!r}")
        focal = frozenset(m.group(1).split(","))
        printed[focal] = float(m.group(2))
        _require(
            abs(printed[focal] - want.get(focal, 0.0)) <= PRINT_TOL,
            f"mass on {sorted(focal)}: printed {m.group(2)}, oracle {want.get(focal, 0.0)}",
        )
    for focal, mass in want.items():
        _require(
            focal in printed or mass <= PRINT_TOL,
            f"focal {sorted(focal)} of mass {mass} not printed",
        )
    atoms = list(doc["frame"])
    interval_lines = lines[i_int + 1 :]
    _require(len(interval_lines) == len(atoms), "one interval line per atom expected")
    for atom, line in zip(atoms, interval_lines):
        m = _INTERVAL.match(line)
        _require(m is not None and m.group(1) == atom, f"bad interval line {line!r}")
        bel, pl = float(m.group(2)), float(m.group(3))
        want_bel, want_pl = bel_pl(want, atom)
        _require(0.0 <= bel <= pl <= 1.0, f"{atom}: bad interval [{bel}, {pl}]")
        _require(
            abs(bel - want_bel) <= PRINT_TOL and abs(pl - want_pl) <= PRINT_TOL,
            f"{atom}: printed [{bel}, {pl}], oracle [{want_bel}, {want_pl}]",
        )


# -- routing -------------------------------------------------------------------


def answerability(node: dict, schema: dict) -> tuple[Fraction, Fraction]:
    """Exact (support, plausibility) that a source can answer a query node."""
    if node["op"] == "atom":
        if node["name"] in schema:
            return Fraction(schema[node["name"]]), Fraction(1)
        return Fraction(0), Fraction(0)
    pairs = [answerability(c, schema) for c in node["children"]]
    if node["op"] == "and":
        return math.prod((s for s, _ in pairs), start=Fraction(1)), math.prod(
            (p for _, p in pairs), start=Fraction(1)
        )
    miss_s = math.prod((1 - s for s, _ in pairs), start=Fraction(1))
    miss_p = math.prod((1 - p for _, p in pairs), start=Fraction(1))
    return 1 - miss_s, 1 - miss_p


def _names(node: dict) -> set:
    if node["op"] == "atom":
        return {node["name"]}
    return set().union(*(_names(c) for c in node["children"]))


def _render(node: dict) -> str:
    if node["op"] == "atom":
        return node["name"]
    return f"{node['op']}({','.join(_render(c) for c in node['children'])})"


_SHORT = re.compile(r"^  (\S+)  support=(\S+) plausibility=(\S+)$")


@_parses
def check_route_output(
    query: dict, sources: list, text: str, threshold: float = 0.5
) -> None:
    """Check ``evident route`` output against exact answerability intervals.

    The shortlist must hold exactly the sources whose plausibility reaches the
    threshold, ordered by support, then priority, then id, with matching
    printed intervals. The plan must assign each maximal fragment some
    shortlisted source fully answers to the best-supported such source,
    list the atoms none answers, and print the product of the supports.
    """
    exact = {s["id"]: answerability(query, s["schema"]) for s in sources}
    by_id = {s["id"]: s for s in sources}
    cut = Fraction(threshold)
    want = sorted(
        (sid for sid, (_, p) in exact.items() if p >= cut),
        key=lambda sid: (-exact[sid][0], by_id[sid]["priority"], sid),
    )
    lines = text.splitlines()
    _require(lines[0] == "shortlist:", f"bad first line {lines[0]!r}")
    if not want:
        _require(lines[1:] == ["  (none)"], "empty shortlist expected")
        return
    i_plan = lines.index("plan:")
    got = []
    for line in lines[1:i_plan]:
        m = _SHORT.match(line)
        _require(m is not None, f"bad shortlist line {line!r}")
        sid, s, p = m.group(1), float(m.group(2)), float(m.group(3))
        _require(sid in exact, f"unknown source {sid}")
        _require(
            abs(s - float(exact[sid][0])) <= PRINT_TOL
            and abs(p - float(exact[sid][1])) <= PRINT_TOL,
            f"{sid}: printed [{s}, {p}], exact {exact[sid]}",
        )
        got.append(sid)
    _require(got == want, f"shortlist {got}, expected {want}")

    short = [by_id[sid] for sid in want]
    assignments, unassigned = [], []

    def walk(node: dict) -> None:
        able = [s for s in short if all(s["schema"].get(a, 0) > 0 for a in _names(node))]
        if able:
            best = min(
                able,
                key=lambda s: (-answerability(node, s["schema"])[0], s["priority"], s["id"]),
            )
            assignments.append((node, best["id"]))
        elif node["op"] == "atom":
            unassigned.append(node["name"])
        else:
            for child in node["children"]:
                walk(child)

    walk(query)
    plan = lines[i_plan + 1 :]
    want_lines = [f"  {_render(node)} -> {sid}" for node, sid in assignments]
    if unassigned:
        want_lines.append(f"  unassigned: {', '.join(unassigned)}")
    _require(plan[:-1] == want_lines, f"plan {plan[:-1]}, expected {want_lines}")
    _require(plan[-1].startswith("  total support: "), f"bad last line {plan[-1]!r}")
    total = math.prod(
        (answerability(node, by_id[sid]["schema"])[0] for node, sid in assignments),
        start=Fraction(1),
    )
    printed = float(plan[-1].split(": ", 1)[1])
    _require(
        abs(printed - float(total)) <= PRINT_TOL,
        f"printed total support {printed}, exact {float(total)}",
    )


def check_same(what: str, first, repeat) -> None:
    """Repeated runs on one input must give identical output."""
    _require(repeat == first, f"{what}: a repeated run differs from the first")
