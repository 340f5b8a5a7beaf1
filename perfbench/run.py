"""Benchmark of finsat over four workloads.

    python3 perfbench/run.py --workload typed-tables --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh Python process (worker.py) with a fixed hash
seed, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(``setup_s``, ``run_s``, ``peak_rss_mib``) with --trace 0, the per-layer
metrics with --trace 1.  ``setup_s`` runs from the worker's start to the
moment its inputs are built.  Both times are rescaled to a reference machine
speed sampled while they run (see speed.py).  The result, with the raw
times, is also written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"
#: The worker is stopped if it outlives this, so a run ends within 180 s.
TIMEOUT_S = 170

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0 or not lines:
        print(f"worker failed (exit code {code})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": (setup_s - result["setup_probe_s"]) * result["setup_scale"], **metrics}
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w") as fh:
        json.dump({**out, "raw_setup_s": setup_s, "raw_pass_s": result["raw_pass_s"]}, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
