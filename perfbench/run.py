"""Benchmark of the `spel check` and `spel entail` commands.

Run from the repository root:

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Workloads: entail-example2, check-corpus, entail-self (see README.md).
With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics setup_s, wall_s, command_ms_p50 and peak_rss_mb; with
`--trace 1` it holds the per-layer metrics of a traced run. The workload
runs in one fresh single-threaded child process (`bench.py`), and every
process this script starts runs the program from `src/` of the current
directory under a fixed `PYTHONHASHSEED`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fixes the program's own set iteration order, and with it fresh-name
#: numbering and the order of work, in every measured process.
HASH_SEED = "0"
#: Fresh interpreters timed for setup_s before the workload, and again
#: after it, so that the median spans the run rather than a moment of it.
SETUP_SAMPLES = 11
READY = "import spel.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def time_to_ready(env: dict) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    `spel.cli` and could run its first command."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line != "ready\n":
            raise RuntimeError("a fresh interpreter could not import spel.cli")
    return ready - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "spel", "cli.py")):
        print("run from a checkout of the repository: src/spel is missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=src)

    samples = []
    if not args.trace:
        time_to_ready(env)  # writes the bytecode cache, as an install does
        samples += [time_to_ready(env) for _ in range(SETUP_SAMPLES)]

    worker = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = worker.stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        print(f"the workload exited with code {worker.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        samples += [time_to_ready(env) for _ in range(SETUP_SAMPLES)]
        result["metrics"]["setup_s"] = {"value": statistics.median(samples),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
