#!/usr/bin/env python3
"""The benchmark of record for evident.

    python3 perfbench/run.py --workload replay-fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 10     # every workload in turn

One run generates the workload's input documents from ``--seed``, times
set-up in fresh processes, then repeats whole rounds of the workload's
operations for ``--seconds`` seconds, one at a time. Afterwards it checks the
outputs against the reference computations in ``oracle.py`` and prints, as
its last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``. A failed check exits with 1.

The traced run wraps the package's module boundaries (``spans.py``) and
writes the spans and the full per-layer table to ``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAKE = ROOT / "tests" / "data" / "lake_tower.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

WORKLOADS = ("replay-fresh", "replay-aged", "fuse-dense", "cli")
SETUP_PROBES = 7
CLI_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from child import load_masses  # noqa: E402


class OpFailed(Exception):
    """A command-line invocation exited with a non-zero code."""


def make_inputs(workload: str, seed: int, inputs: Path) -> dict:
    """Generate the workload's documents, write them to ``inputs``, return them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "replay-fresh":
        docs = {"scenario": gen.replay_scenario(rng, discount_rate=1.0)}
    elif workload == "replay-aged":
        docs = {"scenario": gen.replay_scenario(rng, discount_rate=0.99)}
    elif workload == "fuse-dense":
        docs = {"masses": gen.dense_masses(rng)}
    else:
        query, sources = gen.route_documents(rng)
        docs = {
            "lake_tower": json.loads(LAKE.read_text(encoding="utf-8")),
            "masses": gen.small_masses(rng),
            "query": query,
            "sources": sources,
        }
    inputs.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        text = LAKE.read_text(encoding="utf-8") if name == "lake_tower" else gen.dumps(doc)
        (inputs / f"{name}.json").write_text(text, encoding="utf-8")
    return docs


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def children_cpu() -> float:
    """User plus system CPU seconds of all waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, inputs: Path) -> float:
    """Median over fresh processes of import plus input loading."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(inputs)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def in_process_round(ev, workload: str, docs: dict, inputs: Path) -> list:
    """The operations of one round, as (key, callable) pairs."""
    if workload.startswith("replay"):
        text = (inputs / "scenario.json").read_text(encoding="utf-8")
        return [("replay", lambda: ev.emit_trace(ev.run_scenario(ev.load_scenario(text))))]
    frame, masses = load_masses(ev, docs["masses"])

    def fuse():
        report = ev.combine_all(masses)
        return report, [report.result.interval(frame.singleton(a)) for a in frame.atoms]

    return [("fuse", fuse)]


def cli_round(inputs: Path, traced: bool, tracer) -> list:
    """One invocation each of ``run``, ``combine`` and ``route``."""
    commands = [
        ("run", ["run", str(inputs / "lake_tower.json")]),
        ("combine", ["combine", str(inputs / "masses.json")]),
        ("route", ["route", str(inputs / "query.json"), str(inputs / "sources.json")]),
    ]
    spans_file = inputs / "child-spans.json"
    prefix = (
        [sys.executable, str(HERE / "child.py"), "cli", str(spans_file)]
        if traced
        else [sys.executable, "-m", "evident"]
    )
    env = child_env()

    def invoke(args):
        def op():
            proc = subprocess.run(
                prefix + args, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S
            )
            if traced and spans_file.is_file():
                tracer.merge(json.loads(spans_file.read_text(encoding="utf-8")))
                spans_file.unlink()
            if proc.returncode != 0:
                raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout

        return op

    return [(key, invoke(args)) for key, args in commands]


def check(docs: dict, first: dict) -> str:
    """Run the oracle checks on the first output of each operation."""
    notes = []
    if "replay" in first:
        skipped = oracle.check_trace(docs["scenario"], first["replay"])
        notes.append(f"{skipped} rows skipped (status margin within tolerance)")
    if "fuse" in first:
        report, intervals = first["fuse"]
        focals = {frozenset(p.atoms()): m for p, m in report.result.focals()}
        oracle.check_fold(
            docs["masses"],
            report.conflict,
            focals,
            [(iv.support, iv.plausibility) for iv in intervals],
        )
    if "run" in first:
        oracle.check_trace(docs["lake_tower"], first["run"])
    if "combine" in first:
        oracle.check_combine_output(docs["masses"], first["combine"])
    if "route" in first:
        oracle.check_route_output(docs["query"], docs["sources"], first["route"])
    return "; ".join(notes)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "evident" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    if workload == "cli" and not LAKE.is_file():
        print(f"perfbench: {LAKE} not found", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    inputs = OUT / workload
    docs = make_inputs(workload, seed, inputs)
    setup_s = None if traced else setup_seconds(workload, inputs)

    sys.path.insert(0, str(SRC))
    import evident as ev

    tracer = spans.Tracer() if traced else None
    if workload == "cli":
        ops = cli_round(inputs, traced, tracer)
        failures = (OpFailed,)
        clock = children_cpu
    else:
        clock = time.process_time
        ops = in_process_round(ev, workload, docs, inputs)
        failures = (ev.EvidentError,)
        if traced:
            spans.install(tracer)

    first: dict = {}
    times: list[float] = []
    attempted = failed = 0
    repeats: dict = {}  # first repeated output that differs from first[key]
    errors: list[str] = []

    def run_round(timed: bool) -> None:
        nonlocal attempted, failed
        for key, op in ops:
            attempted += 1
            start = clock()
            try:
                out = op()
            except failures as exc:
                failed += 1
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - start
            if timed:
                times.append(elapsed)
            if key not in first:
                first[key] = out
            elif out != first[key]:
                repeats.setdefault(key, out)

    run_round(timed=False)  # warm-up; its outputs are the ones checked
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        run_round(timed=True)
    wall = time.perf_counter() - began
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    correct = True
    try:
        for key, out in repeats.items():
            oracle.check_same(key, first[key], out)
        note = check(docs, first)
    except oracle.CheckFailed as exc:
        correct = False
        note = f"CHECK FAILED: {exc}"

    print(
        f"{workload} seed {seed}: {attempted} operations, {failed} failed, "
        f"{len(times)} timed in {wall:.1f} s; checks "
        f"{'passed' if correct else 'FAILED'}{'; ' + note if note else ''}"
    )
    for line in errors[:3]:
        print(f"  failed operation: {line}")

    if traced:
        found = spans.layer_metrics(tracer, attempted)
        found["traced_op_cpu_ms_p50"] = 1000.0 * statistics.median(times) if times else 0.0
        tracer.write_csv(inputs / "spans.csv.gz")
        (inputs / "layers.json").write_text(json.dumps(found, indent=1), encoding="utf-8")
        if tracer.missing:
            print(f"  not traced (absent from the package): {', '.join(tracer.missing)}")
        for name in sorted(found):
            print(f"  {name:36s} {found[name]:.6g}")
    else:
        found = {
            "setup_s": setup_s,
            "op_cpu_ms_p50": 1000.0 * statistics.median(times) if times else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in wanted}
    if not traced:
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not (lines and lines[-1].startswith("{")):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
