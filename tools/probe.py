"""Replay the probe stream once and print its cost and its trace's digest.

The probe stream: W reports 1 s apart, report i focused on the frame less
atom i mod n, then W reports on the whole frame, each at a degree drawn
from U(0.3, 0.6) by ``random.Random(5)``; the window is W s and the step
1 s. Once a window holds n of the first reports, its sum holds every
non-empty subset of the frame, so the fold's work grows as 2**n.

    PYTHONPATH=src python tools/probe.py --atoms 16 --window 40 --rate 0.99

Prints one JSON line: the CPU seconds of ``run_scenario``, the process's
peak RSS (``ru_maxrss``) after it, the peak that ``tracemalloc`` traces
over a second run, and the SHA-256 of the trace's bytes. The traced run
comes second, so it adds neither to the CPU seconds nor to the RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import time
import tracemalloc

from evident import Frame, Scenario, SensorReport, emit_trace, run_scenario


def probe_stream(n_atoms: int, width: int, rate: float) -> Scenario:
    """The probe stream on ``n_atoms`` atoms, a window of ``width`` s, at ``rate``."""
    rng = random.Random(5)
    frame = Frame([f"a{i:02d}" for i in range(n_atoms)])
    full = (1 << n_atoms) - 1
    reports = tuple(
        SensorReport(
            "s", float(i), frame.from_bits(full ^ (1 << i % n_atoms) if i < width else full),
            rng.uniform(0.3, 0.6),
        )
        for i in range(2 * width)
    )
    return Scenario(frame, reports, window=float(width), step=1.0, discount_rate=rate)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--atoms", type=int, default=16)
    parser.add_argument("--window", type=int, default=40)
    parser.add_argument("--rate", type=float, default=0.99)
    args = parser.parse_args()
    scenario = probe_stream(args.atoms, args.window, args.rate)
    start = time.process_time()
    rows = run_scenario(scenario)
    cpu = time.process_time() - start
    # kilobytes on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(emit_trace(rows).encode()).hexdigest()
    del rows
    tracemalloc.start()
    run_scenario(scenario)
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "atoms": args.atoms, "window": args.window, "rate": args.rate,
        "cpu_s": round(cpu, 3), "maxrss_mb": round(rss, 1),
        "traced_peak_mb": round(traced / 2**20, 2), "sha256": digest,
    }))


if __name__ == "__main__":
    main()
