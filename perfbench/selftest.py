#!/usr/bin/env python3
"""Fast self-test of the benchmark's checks and tracer at tiny sizes.

    python3 perfbench/selftest.py

Runs each workload's operations once on tiny generated inputs and requires
every check to accept the program's genuine output. Then it feeds each check
deliberately perturbed copies of that output and requires every one to be
rejected. Last, it traces a tiny replay and checks the spans: every child
lies inside its parent and the step count equals the row count. Exits 1 on
the first check that accepts a bad output or rejects a good one.
"""

from __future__ import annotations

import random
import sys

import run  # puts the benchmark directory on sys.path
import gen
import oracle
import spans

sys.path.insert(0, str(run.SRC))
import evident as ev  # noqa: E402

passed = 0


def accept(name: str, fn, *args) -> None:
    global passed
    try:
        fn(*args)
    except oracle.CheckFailed as exc:
        sys.exit(f"selftest: {name}: genuine output rejected: {exc}")
    passed += 1


def reject(name: str, fn, *args) -> None:
    global passed
    try:
        fn(*args)
    except oracle.CheckFailed:
        passed += 1
        return
    sys.exit(f"selftest: {name}: perturbed output accepted")


def replace_line(text: str, index: int, new: str) -> str:
    lines = text.split("\n")
    lines[index] = new
    return "\n".join(lines)


def bump_cell(text: str, row: int, col: int, delta: float) -> str:
    """Add ``delta`` to one numeric cell of a CSV trace (row 1 is the first data row)."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.6f}"
    return replace_line(text, row, ",".join(cells))


def decided_row(doc: dict) -> int:
    """Index (in the CSV) of a row whose status the oracle does not skip."""
    threshold = doc["conflict_threshold"]
    for i, (_, intervals, conflict) in enumerate(oracle.replay(doc), start=1):
        status = oracle.expected_status(intervals, conflict, threshold, oracle.PRINT_TOL)
        if status is not None and status[0] in ("decided", "leaning"):
            return i
    sys.exit("selftest: tiny replay has no decided or leaning row")


def check_replays() -> None:
    for rate in (1.0, 0.9):
        doc = gen.replay_scenario(
            random.Random(f"selftest:{rate}"), atoms=6, reports=40, window=5.0,
            discount_rate=rate,
        )
        text = ev.emit_trace(ev.run_scenario(ev.load_scenario(gen.dumps(doc))))
        name = f"replay rate {rate}"
        accept(name, oracle.check_trace, doc, text)
        row = decided_row(doc)
        cells = text.split("\n")[row].split(",")
        flipped = "leaning" if cells[-2] == "decided" else "decided"
        lines = text.split("\n")
        for label, bad in (
            ("bel", bump_cell(text, row, 1, 0.01)),
            ("pl", bump_cell(text, row, 2, -0.01)),
            ("conflict", bump_cell(text, row, -3, 0.001)),
            ("status", replace_line(text, row, ",".join(cells[:-2] + [flipped, cells[-1]]))),
            ("hypothesis", replace_line(text, row, ",".join(cells[:-1] + ["nobody"]))),
            ("dropped row", "\n".join(lines[:-2] + [""])),
            ("header", replace_line(text, 0, lines[0].replace("_bel", "_b", 1))),
        ):
            reject(f"{name}: {label}", oracle.check_trace, doc, bad)
        reject(f"{name}: repeat", oracle.check_same, name, text, bump_cell(text, 1, 1, 0.01))


def check_fold() -> None:
    doc = gen.dense_masses(random.Random("selftest:fuse"), atoms=6, count=3, focals=8, size=3)
    frame = ev.Frame(doc["frame"])
    masses = [
        ev.MassFunction(frame, [(frame.proposition(e["atoms"]), e["mass"]) for e in m])
        for m in doc["masses"]
    ]
    report = ev.combine_all(masses)
    focals = {frozenset(p.atoms()): m for p, m in report.result.focals()}
    intervals = [
        tuple(report.result.interval(frame.singleton(a))) for a in frame.atoms
    ]
    accept("fold", oracle.check_fold, doc, report.conflict, focals, intervals)
    some = next(iter(focals))
    fewer = {h: m for h, m in focals.items() if h != some}
    moved = {**focals, some: focals[some] + 1e-6}
    shifted = [(b + 1e-6, p) for b, p in intervals]
    conflict = report.conflict
    for label, args in (
        ("conflict", (conflict + 1e-6, focals, intervals)),
        ("dropped focal", (conflict, fewer, intervals)),
        ("focal mass", (conflict, moved, intervals)),
        ("interval", (conflict, focals, shifted)),
    ):
        reject(f"fold: {label}", oracle.check_fold, doc, *args)


def check_cli() -> None:
    inputs = run.OUT / "selftest"
    docs = run.make_inputs("cli", 1, inputs)
    outputs = {key: op() for key, op in run.cli_round(inputs, traced=False, tracer=None)}
    accept("cli run", oracle.check_trace, docs["lake_tower"], outputs["run"])
    accept("cli combine", oracle.check_combine_output, docs["masses"], outputs["combine"])
    accept(
        "cli route", oracle.check_route_output, docs["query"], docs["sources"], outputs["route"]
    )
    combined = outputs["combine"]
    lines = combined.split("\n")
    mass_line = lines.index("mass:") + 1
    interval_line = lines.index("intervals:") + 1
    head, value = lines[mass_line].rsplit(": ", 1)
    atom, rest = lines[interval_line].split(": [", 1)
    bel, pl = rest.rstrip("]").split(", ")
    for label, bad in (
        ("conflict", replace_line(combined, 0, f"conflict: {float(lines[0][10:]) + 0.01:.6f}")),
        ("mass", replace_line(combined, mass_line, f"{head}: {float(value) + 0.01:.6f}")),
        ("dropped mass", "\n".join(lines[:mass_line] + lines[mass_line + 1 :])),
        ("interval", replace_line(combined, interval_line, f"{atom}: [{bel}, {float(pl) - 0.01:.6f}]")),
    ):
        reject(f"cli combine: {label}", oracle.check_combine_output, docs["masses"], bad)

    routed = outputs["route"]
    lines = routed.split("\n")
    if lines[1] == "  (none)":
        sys.exit("selftest: tiny route shortlist is empty; pick another seed")
    sid, support, plaus = lines[1].split()
    value = float(support.split("=")[1])
    plan = lines.index("plan:")
    last = max(i for i, line in enumerate(lines) if line.startswith("  total support: "))
    total = float(lines[last].split(": ")[1])
    for label, bad in (
        ("support", replace_line(routed, 1, f"  {sid}  support={value + 0.01:.6f} {plaus}")),
        ("dropped source", "\n".join(lines[:1] + lines[2:])),
        ("total", replace_line(routed, last, f"  total support: {total + 0.01:.6f}")),
        ("plan source", replace_line(routed, plan + 1, lines[plan + 1].rsplit(" -> ", 1)[0] + " -> nowhere")),
    ):
        reject(f"cli route: {label}", oracle.check_route_output, docs["query"], docs["sources"], bad)


def check_tracer() -> None:
    doc = gen.replay_scenario(random.Random("selftest:trace"), atoms=6, reports=40, window=5.0)
    tracer = spans.Tracer()
    spans.install(tracer)
    rows = ev.run_scenario(ev.load_scenario(gen.dumps(doc)))
    ev.emit_trace(rows)
    if tracer.missing:
        sys.exit(f"selftest: tracer found no {', '.join(tracer.missing)}")
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if tracer.end[i] < tracer.start[i] or (
            p >= 0 and not tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
        ):
            sys.exit(f"selftest: span {i} is not nested inside its parent")
    metrics = spans.layer_metrics(tracer, 1)
    if metrics["scenario.steps"] != len(rows):
        sys.exit(f"selftest: {metrics['scenario.steps']} traced steps for {len(rows)} rows")
    global passed
    passed += 1


def main() -> int:
    check_replays()
    check_fold()
    check_cli()
    check_tracer()
    print(f"selftest: {passed} checks passed (genuine outputs accepted, perturbed ones rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
