"""Child processes of the benchmark.

    python child.py setup <workload> <input-dir>
        Time ``import evident`` plus loading and validating the workload's
        input documents; print {"setup_s": ...}.
    python child.py cli <spans-file> <evident arguments...>
        Run the command-line interface as ``python -m evident`` would, with
        the benchmark's tracer installed, and write the spans to a file.

Only the standard library is imported before the clock starts, so the
measured set-up includes numpy's import.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_masses(ev, doc: dict):
    """A masses document as (frame, [MassFunction, ...])."""
    frame = ev.Frame(doc["frame"])
    masses = [
        ev.MassFunction(frame, [(frame.proposition(e["atoms"]), e["mass"]) for e in m])
        for m in doc["masses"]
    ]
    return frame, masses


def load_inputs(ev, workload: str, inputs: Path) -> None:
    """Load and validate every input document of ``workload``."""
    if workload.startswith("replay"):
        ev.load_scenario((inputs / "scenario.json").read_text(encoding="utf-8"))
    elif workload == "fuse-dense":
        load_masses(ev, json.loads((inputs / "masses.json").read_text(encoding="utf-8")))
    else:
        ev.load_scenario((inputs / "lake_tower.json").read_text(encoding="utf-8"))
        load_masses(ev, json.loads((inputs / "masses.json").read_text(encoding="utf-8")))
        ev.load_query((inputs / "query.json").read_text(encoding="utf-8"))
        ev.load_sources((inputs / "sources.json").read_text(encoding="utf-8"))


def setup(workload: str, inputs: str) -> int:
    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import evident as ev

    load_inputs(ev, workload, Path(inputs))
    print(json.dumps({"setup_s": time.process_time() - start}))
    return 0


def traced_cli(spans_file: str, argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import evident.cli

    imported = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.add(spans.IMPORT, start, imported)
    spans.install(tracer)
    try:
        return evident.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    sys.exit(traced_cli(rest[0], rest[1:]))
