"""Command-line interface: scenario replay, evidence fusion, query routing.

Exit codes: 0 success, 1 validation error, 2 I/O error. Each command imports
the modules it uses, so ``route``, which needs no arrays, never loads NumPy.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ._jsonutil import parse_document, require
from .errors import EvidentError, ParseError
from .frames import Frame

if TYPE_CHECKING:
    from .masses import MassFunction


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evident",
        description="Evidential-reasoning engine: replay scenarios, fuse evidence, route queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a scenario and emit its trace")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", help="write the trace here instead of stdout")
    run.add_argument("--window", type=float, help="override the scenario window (seconds)")
    run.add_argument("--format", choices=("csv", "table"), default="csv")

    combine = sub.add_parser("combine", help="fuse a list of mass functions")
    combine.add_argument("masses", help="masses JSON file")

    route = sub.add_parser("route", help="poll sources and plan a query decomposition")
    route.add_argument("query", help="query JSON file")
    route.add_argument("sources", help="sources JSON file")
    route.add_argument("--threshold", type=float, default=0.5,
                       help="plausibility cut for the shortlist (default 0.5)")
    return parser


def _read(path: str) -> str:
    """An input document's text; bytes that are not UTF-8 are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def _cmd_run(args) -> int:
    from .scenario import emit_trace, load_scenario, run_scenario

    scenario = load_scenario(_read(args.scenario))
    if args.window is not None:
        scenario = dataclasses.replace(scenario, window=args.window)
    text = emit_trace(run_scenario(scenario), args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _load_masses(text: str) -> tuple[Frame, list[MassFunction]]:
    from .masses import MassFunction

    doc = parse_document(text)
    require(isinstance(doc, dict), "masses file must be a JSON object")
    require(isinstance(doc.get("frame"), list), "masses file needs a 'frame' list")
    frame = Frame(doc["frame"])
    require(isinstance(doc.get("masses"), list), "masses file needs a 'masses' list")
    out = []
    for entries in doc["masses"]:
        require(isinstance(entries, list), "each mass function must be a list of entries")
        pairs = []
        for entry in entries:
            require(isinstance(entry, dict), "each entry must be a JSON object")
            require(isinstance(entry.get("atoms"), list), "entry needs an 'atoms' list")
            pairs.append((frame.proposition(entry["atoms"]), entry.get("mass")))
        out.append(MassFunction(frame, pairs))
    return frame, out


def _cmd_combine(args) -> int:
    from .combine import combine_all

    frame, masses = _load_masses(_read(args.masses))
    report = combine_all(masses)
    print(f"conflict: {report.conflict:.6f}")
    print("mass:")
    for prop, mass in report.result.focals():
        print(f"  {prop!r}: {mass:.6f}")
    print("intervals:")
    for atom, interval in zip(frame.atoms, report.result.singleton_intervals()):
        print(f"  {atom}: [{interval.support:.6f}, {interval.plausibility:.6f}]")
    return 0


def _cmd_route(args) -> int:
    from .routing import decompose, load_query, load_sources, poll

    query = load_query(_read(args.query))
    sources = load_sources(_read(args.sources))
    shortlist = poll(query, sources, threshold=args.threshold)
    print("shortlist:")
    if not shortlist:
        print("  (none)")
        return 0
    for source_id, interval in shortlist:
        print(
            f"  {source_id}  support={interval.support:.6f}"
            f" plausibility={interval.plausibility:.6f}"
        )
    by_id = {src.id: src for src in sources}
    plan = decompose(query, [by_id[sid] for sid, _ in shortlist])
    print("plan:")
    for fragment, source_id in plan.assignments:
        print(f"  {fragment!r} -> {source_id}")
    if plan.unassigned:
        print(f"  unassigned: {', '.join(repr(u) for u in plan.unassigned)}")
    print(f"  total support: {plan.total_support:.6f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "combine": _cmd_combine, "route": _cmd_route}[args.command]
    try:
        return handler(args)
    except EvidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # the package makes no BLAS call, yet OpenBLAS starts a thread per core
    # when NumPy loads: about 100 ms of CPU per command on a 2-vCPU x86
    # machine. A value the caller has set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
