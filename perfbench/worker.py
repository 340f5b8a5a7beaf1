"""One benchmark run in its own process; started by run.py.

Builds the workload's inputs, prints ``READY``, runs whole passes over its
operations until the run's time is spent, reads the peak resident memory,
checks every result against the reference checker, and prints one JSON
object.  With --trace 1, passes alternate untraced and traced, and the
traced ones give the per-layer metrics.  Set-up and pass times are
rescaled to a reference machine speed sampled while they run (speed.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedProbe

STARTED = time.perf_counter()
#: How often the speed probe samples during set-up and during passes.
SETUP_INTERVAL_S = 0.02
PASS_INTERVAL_S = 0.1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def run_pass(workload, names) -> dict:
    results = {}
    for name in names:
        try:
            results[name] = workload.ops[name]()
        except Exception as e:  # counted as a failed operation
            if name not in workload.known_failures:
                traceback.print_exc()
            results[name] = e
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    speed = SpeedProbe()
    speed.start(SETUP_INTERVAL_S)

    import finsat

    if not os.path.abspath(finsat.__file__).startswith(os.path.join(ROOT, "src", "finsat")):
        print(f"finsat imported from {finsat.__file__}, not from this checkout", file=sys.stderr)
        return 1
    from spans import Tracer, run_metrics
    from workloads import WORKLOADS, summarize

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload]()
    setup_probes, setup_scale = speed.stop()
    setup_wall = time.perf_counter() - STARTED
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    print("READY", flush=True)

    rng = random.Random(args.seed)
    names = list(workload.ops)
    first, later, attempted, failed = None, [], 0, 0
    walls, traced, raw_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        rng.shuffle(names)
        tracing = tracer is not None and len(later) % 2 == 0 and first is not None
        gc.collect()
        if tracing:
            tracer.install()
        speed.start(PASS_INTERVAL_S)
        start = time.perf_counter()
        results = run_pass(workload, names)
        elapsed = time.perf_counter() - start
        spent, scale = speed.stop()
        raw_walls.append(elapsed - spent)
        wall = (elapsed - spent) * scale
        attempted += len(results)
        failed += sum(isinstance(r, Exception) for r in results.values())
        if first is None:
            first = results
        else:
            later.append(summarize(results))
        if tracing:
            tracer.uninstall()
            traced.append((tracer.take(), elapsed, wall))
        else:
            walls.append(wall)
        if len(later) >= (1 if tracer else 0) and time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(first, later)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if tracer:
        metrics = run_metrics(setup_spans, setup_wall, traced, walls)
    else:
        metrics = {"run_s": statistics.median(walls), "peak_rss_mib": peak_rss_mib}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "setup_probe_s": setup_probes,
        "setup_scale": setup_scale,
        "raw_pass_s": raw_walls,
        "metrics": metrics,
    }
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"setup": setup_spans, "passes": [t[0] for t in traced]}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
