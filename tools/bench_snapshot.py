"""Run the benchmark on every workload and gather the results in one file.

    python tools/bench_snapshot.py --seed 1 --seconds 16 --out BENCH_x.json

Run it from the root of a checkout. It calls bench/run.py as it stands,
once per workload with --trace 0 and once with --trace 1, and keeps the
last line of each run's stdout. Of each traced run's
bench/out/trace-<workload>-<seed>.json it keeps the set-up samples and the
end-to-end figures, and the number of spans in place of the spans. The
document also names the commit, whether src/ or bench/ differ from it,
the seed, the seconds, nproc and the Python version, so two snapshots can
be diffed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-cold", "collar-sweep", "spectrum-ingest")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    run = {"exit": proc.returncode, "stderr": proc.stderr.splitlines()}
    if proc.stdout.strip():
        run["result"] = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        path = Path("bench/out") / f"trace-{workload}-{seed}.json"
        doc = json.loads(path.read_text())
        doc["spans"] = len(doc["spans"])
        run["trace_file"] = doc
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if not Path("bench/run.py").is_file():
        print("bench_snapshot: run from the root of a checkout",
              file=sys.stderr)
        return 2
    snapshot = {
        "commit": _git("rev-parse", "HEAD"),
        "sources_differ_from_commit": bool(
            _git("status", "--porcelain", "--", "src", "bench")),
        "seed": args.seed, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "runs": {f"{workload} --trace {trace}":
                 _run(workload, args.seed, args.seconds, trace)
                 for trace in (0, 1) for workload in WORKLOADS},
    }
    args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
