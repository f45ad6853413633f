"""Per-layer metrics of the traced run.

Times the public functions of each cyleta module from outside, at 4001,
40001 and 200001 modes, each call inside a span; a metric is the median
span duration over the repeats. Counts of integrand evaluations, spectrum
hashes and eta calls are read from the same spans. The outputs are checked against reference.py like the
workloads' outputs. Import this module only after the checkout's sources
are on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import cyleta.cli
from cyleta import (VanishingTermConfig, aps_index, circle_spectrum,
                    contribution, direct_sum, dirichlet_variant_contribution,
                    dump_spectrum, eta_invariant, load_spectrum,
                    relative_index_check, vanishing_term_detailed,
                    verify_boundary_vanish, verify_decomposition,
                    verify_vanishing)

import inputs
import reference
from workloads import (AS_TERM, CLI_N_MAX, INGEST_N_MAX, MERGE_N_MAX,
                       child_env, cli_requests)

# (n_max, repeats): 4001, 40001 and 200001 modes.
SIZES = ((CLI_N_MAX, 5), (INGEST_N_MAX, 3), (100000, 1))
COLLAR = 0.5
VANISHING_COLLAR = 1.0
IMPORT_REPEATS = 3
INTERPRETER_REPEATS = 5


def _ms(seconds: list[float]) -> dict:
    return {"value": 1e3 * statistics.median(seconds), "unit": "ms"}


def _importtime_ms(root: Path, code: str, module: str) -> float:
    """Cumulative import time of a top-level module in `python -X
    importtime -c code`, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=60, check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2] == " " + module:
            return int(fields[1]) / 1e3
    raise RuntimeError(f"no import time line for {module}")


def import_metrics(root: Path) -> dict:
    """Import of the CLI, the share scipy.integrate adds on top of numpy
    and scipy.special, and the start-up of a bare interpreter."""
    cli = [_importtime_ms(root, "import cyleta.cli", "cyleta.cli")
           for _ in range(IMPORT_REPEATS)]
    integrate = [_importtime_ms(root, "import numpy, scipy.special, "
                                "scipy.integrate", "scipy.integrate")
                 for _ in range(IMPORT_REPEATS)]
    bare = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root,
                       env=child_env(root), check=True, timeout=60)
        bare.append(time.perf_counter() - start)
    return {
        "import.cyleta_ms": {"value": statistics.median(cli), "unit": "ms"},
        "import.scipy_integrate_ms": {"value": statistics.median(integrate),
                                      "unit": "ms"},
        "import.interpreter_ms": _ms(bare),
    }


def measure_layers(rng, root: Path, workdir: Path, tracer
                   ) -> tuple[dict, list[str]]:
    """Return the per-layer metrics and the violations found on the way."""
    metrics = import_metrics(root)
    found: list[str] = []

    def timed(name: str, repeats: int, fn, *args):
        seconds = []
        for _ in range(repeats):
            with tracer.span(name) as span:
                result = fn(*args)
            seconds.append(span["end"] - span["start"])
        metrics[name] = _ms(seconds)
        return result, span

    def count(name: str, value: int) -> None:
        metrics[name] = {"value": value, "unit": "count"}

    tw, tw_2, an = inputs.twist(rng), inputs.twist(rng), inputs.angle(rng)
    for n_max, repeats in SIZES:
        tag = f".n{2 * n_max + 1}"
        smallest = n_max == CLI_N_MAX
        real, _ = timed("spectral.circle_ms" + tag, repeats,
                        circle_spectrum, tw, 0.0, n_max)
        timed("spectral.hash_ms" + tag, repeats, hash, real)
        for angle in (0.0, an):
            kind = ".cplx" if angle else ""
            spectrum = circle_spectrum(tw, angle, n_max) if angle else real
            eta, span = timed(f"eta.eta_invariant_ms{tag}{kind}", repeats,
                              eta_invariant, spectrum)
            found += reference.check_eta(eta.value, tw, angle)
            if smallest:
                count("quad.neval.eta" + kind, span["neval"])
            con, span = timed(f"contribution.contribution_ms{tag}{kind}",
                              repeats, contribution, spectrum, COLLAR)
            found += reference.check_contribution(
                con.direct_value, con.decomposed_value,
                con.vanishing_residual, con.est_error, tw, angle)
            if smallest and not angle:
                count("quad.neval.contribution", span["neval"])
                count("spectral.hash_calls.contribution", span["hash"])
            value, span = timed(f"contribution.dirichlet_ms{tag}{kind}",
                                repeats, dirichlet_variant_contribution,
                                spectrum, COLLAR)
            found += reference.check_dirichlet(value, tw, angle, COLLAR)
            if smallest and not angle:
                count("quad.neval.dirichlet", span["neval"])
            del spectrum
        van, _ = timed("vanishing.vanishing_term_ms" + tag, repeats,
                       vanishing_term_detailed, real, COLLAR)
        found += reference.check_vanishing(van.value, van.est_error)
        index, _ = timed("assembly.aps_index_ms" + tag, repeats,
                         aps_index, real, AS_TERM)
        found += reference.check_index(index.index_value, AS_TERM, tw, 0.0)

        if smallest:
            report, _ = timed("vanishing.verify_vanishing_ms" + tag, repeats,
                              verify_vanishing, real,
                              VanishingTermConfig(a_prime=VANISHING_COLLAR))
            if not report.certified:
                found.append("verify_vanishing: certificate failed")
            found += reference.check_vanishing(report.rows[-1][1],
                                               reference.VALUE_TOL)
            other = circle_spectrum(tw_2, 0.0, n_max)
            value, _ = timed("assembly.relative_ms" + tag, repeats,
                             relative_index_check, real, 0.0, other, 0.0,
                             COLLAR)
            found += reference.check_relative(value, tw, tw_2)
            timed("identities.verify_ms", repeats,
                  lambda: (verify_decomposition(), verify_boundary_vanish()))

        if n_max == INGEST_N_MAX:
            timed("spectral.dump_ms" + tag, repeats, dump_spectrum, real,
                  workdir / "probe-dump.json")
            written = workdir / "probe-load.json"
            inputs.write_circle(written, tw, 0.0, n_max)
            loaded, _ = timed("spectral.load_ms" + tag, repeats,
                              load_spectrum, written)
            found += reference.check_eta(eta_invariant(loaded).value, tw, 0.0)
            parts = [circle_spectrum(t, 0.0, MERGE_N_MAX) for t in (tw, tw_2)]
            merged, _ = timed("spectral.direct_sum_ms" + tag, repeats,
                              direct_sum, *parts)
            found += reference.check_eta_sum(eta_invariant(merged).value,
                                             [(tw, 0.0), (tw_2, 0.0)])
            del loaded, parts, merged
            tracemalloc.start()
            circle_spectrum(tw, 0.0, n_max)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            metrics["spectral.bytes_per_mode"] = {
                "value": peak / (2 * n_max + 1), "unit": "B/mode"}
        del real

    for command, argv, check in cli_requests(rng, workdir):
        def call(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cyleta.cli.main(argv)
            return status, json.loads(out.getvalue())
        (status, doc), span = timed(f"cli.{command}_ms", SIZES[0][1], call)
        found += [f"cli {command}: {v}" for v in check(status, doc)]
        if command in ("contribution", "index"):
            count(f"eta.calls.cli_{command}", span["eta"])
    return metrics, found
