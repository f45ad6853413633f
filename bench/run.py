"""cyleta benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {cli-cold,collar-sweep,spectrum-ingest}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the sources in src/.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run also writes its
spans and its end-to-end figures to bench/out/trace-<workload>-<seed>.json.
See bench/README.md for the workloads, the checks and the metrics.

Load comes from one worker process at a time (worker.py); for cli-cold
the worker runs one cyleta CLI process at a time. Set-up time is the
median of SETUP_REPEATS worker starts, each timed from interpreter start
to the end of its warm-up operation; the last start also runs the timed
phase.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
# Every run must end within this many seconds.
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "collar-sweep",
                                 "spectrum-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "cyleta" / "cli.py").is_file():
        return _fail(f"no cyleta sources under {root}/src; run from the "
                     "root of a checkout")
    deadline = time.monotonic() + DEADLINE_S
    # Compile the bytecode first, so that no timed start pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL,
                   timeout=120)

    worker = [sys.executable, str(root / "bench" / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        started = time.monotonic()
        cmd = worker + ["--started", repr(started)]
        if not last:
            cmd.append("--setup-only")
        try:
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                  text=True,
                                  timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            return _fail("the worker did not finish in time")
        if proc.returncode != 0:
            return _fail(f"the worker exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        setup.append(result["setup_s"])
    result["setup_s"] = statistics.median(setup)

    for line in result["violations"][:20]:
        print(f"bench: wrong output: {line}", file=sys.stderr)
    for name, message in result["failures"].items():
        print(f"bench: failed operation {name}: {message}", file=sys.stderr)
    end_to_end = {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "throughput_ops": {"value": result["throughput_ops"], "unit": "1/s"},
        "latency_ms.p50": {"value": result["latency_ms.p50"], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    if args.trace:
        out = root / "bench" / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "setup_s_samples": setup, "end_to_end": end_to_end,
            "per_layer": result["per_layer"], "spans": result["spans"]},
            indent=1) + "\n")
    print(json.dumps({
        "correct": not result["violations"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else end_to_end}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
