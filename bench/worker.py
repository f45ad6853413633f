"""One benchmark process: set up a workload, then run whole rounds of it.

Started by run.py, which passes the monotonic time at which it started
this interpreter, so set-up time counts from interpreter start to the end
of the warm-up operation. With --setup-only the process stops there.
Prints one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import inputs
import spans
from workloads import WORKLOADS


def run_rounds(ops, seconds: float, tracer) -> dict:
    """Run every operation of the round, round after round, until at least
    `seconds` have passed at the end of a round."""
    latencies: list[float] = []
    violations: list[str] = []
    failures: dict[str, str] = {}
    failed = 0
    start = time.perf_counter()
    while True:
        for name, op in ops:
            began = time.perf_counter()
            try:
                with tracer.span("op." + name):
                    violations += op()
            # A failed operation is counted and the run goes on.
            except Exception as exc:
                failed += 1
                failures.setdefault(name, f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - began)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    return {"attempted": len(latencies), "failed": failed,
            "violations": violations, "failures": failures,
            "throughput_ops": len(latencies) / elapsed,
            "latency_ms.p50": 1e3 * statistics.median(latencies)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when this interpreter was "
                             "started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    rng = inputs.rng_for(args.workload, args.seed)
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        ops = WORKLOADS[args.workload](rng, root, workdir, tracer)
        _check_sources(root)
        with tracer.span("warm-up." + ops[0][0]):
            warm_up = ops[0][1]()
        setup_s = time.monotonic() - args.started
        if warm_up:
            print("\n".join(warm_up), file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            tracer.count_calls()
        result = run_rounds(ops, args.seconds, tracer)
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
               else resource.RUSAGE_SELF)
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        result["setup_s"] = setup_s
        del ops
        if args.trace:
            import probe  # needs the checkout's sources on sys.path
            result["per_layer"], found = probe.measure_layers(
                rng, root, workdir, tracer)
            result["violations"] += found
            result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


def _check_sources(root: Path) -> None:
    """Refuse to measure a cyleta other than the checkout's."""
    if "cyleta" in sys.modules:
        where = Path(sys.modules["cyleta"].__file__).resolve()
        if root / "src" not in where.parents:
            raise RuntimeError(f"cyleta imported from {where}, not {root}/src")


if __name__ == "__main__":
    sys.exit(main())
