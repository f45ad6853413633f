"""The three workloads: their seeded inputs and the operations of one round.

Each set-up function returns the operations of one round as (name,
callable) pairs. A callable does one operation, checks its output against
reference.py and returns the violations it found; it raises when the
operation fails. Every round runs the same operations, so the share of
failed operations is the same in every run.

cli-cold imports nothing from cyleta: its load is one `python -m
cyleta.cli` process at a time. The other two import cyleta inside their
set-up, which set-up time covers.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import inputs
import reference

Op = tuple[str, Callable[[], list[str]]]

CLI_N_MAX = 2000            # 4001 modes
SWEEP_N_MAX = (20000, 100000)  # 40001 and 200001 modes
INGEST_N_MAX = 20000        # 40001 modes, written to and read from JSON
MERGE_N_MAX = 10000         # two 20001-mode circles merge to 40002 modes
AS_TERM = 0.25
# The round-trip operation saves and reloads this circle. It is fixed, not
# seeded: the operation fails on every run while dump_spectrum drops
# truncated_at.
ROUND_TRIP = (0.25, 0.0, INGEST_N_MAX)
ETA_FIELDS = ("value", "quadrature_part", "tail_part", "est_error",
              "truncation_error")


class OperationFailed(Exception):
    """The program returned, but not the result the operation needs."""


def child_env(root: Path) -> dict:
    """Environment of every child interpreter: the checkout's sources, one
    numerical thread, so the load stays on one core."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _pair(values: list[float]) -> complex:
    return complex(values[0], values[1])


def cli_requests(rng, workdir: Path) -> list[tuple[str, list[str], Callable]]:
    """The seven subcommands on 4001-mode circles and generated files.

    Each entry is (subcommand, argv, check) where check(returncode, doc)
    returns the violations in one JSON document.
    """
    tw_e, an_e = inputs.twist(rng), inputs.angle(rng)
    tw_c, an_c = inputs.twist(rng), inputs.angle(rng)
    tw_1, tw_2 = inputs.twist(rng), inputs.twist(rng)
    tw_i = inputs.twist(rng)
    small, *_, large = inputs.collars(rng)
    vanishing_collar = rng.uniform(1.0, 3.0)

    eta_file = workdir / "cli-eta.json"
    inputs.write_circle(eta_file, tw_e, an_e, CLI_N_MAX)
    rel_files = [workdir / "cli-rel-1.json", workdir / "cli-rel-2.json"]
    for path, tw in zip(rel_files, (tw_1, tw_2)):
        inputs.write_circle(path, tw, 0.0, CLI_N_MAX)
    circle = ["--twist", repr(tw_c), "--rotation-angle", repr(an_c),
              "--n-max", str(CLI_N_MAX)]

    def ok(returncode: int, doc: dict) -> list[str]:
        if returncode == 0 and not doc["errors"]:
            return []
        return [f"exit {returncode}, errors {doc['errors']}"]

    def eta(rc, doc):
        return ok(rc, doc) or reference.check_eta(
            _pair(doc["result"]["value"]), tw_e, an_e)

    def contribution(rc, doc):
        found = ok(rc, doc)
        for r in [] if found else doc["result"]["reports"]:
            found += reference.check_contribution(
                _pair(r["direct_value"]), _pair(r["decomposed_value"]),
                _pair(r["vanishing_residual"]), r["est_error"], tw_c, an_c)
        return found

    def dirichlet(rc, doc):
        return ok(rc, doc) or reference.check_dirichlet(
            _pair(doc["result"]["values"][0]["value"]), tw_c, an_c, small)

    def index(rc, doc):
        return ok(rc, doc) or reference.check_index(
            _pair(doc["result"]["reports"][0]["index_value"]), AS_TERM,
            tw_i, 0.0)

    def relative(rc, doc):
        return ok(rc, doc) or reference.check_relative(
            _pair(doc["result"]["value"]), tw_1, tw_2)

    def passed(command):
        return lambda rc, doc: reference.check_passed(command, rc, doc)

    return [
        ("eta", ["eta", "--spectrum", str(eta_file)], eta),
        ("contribution", ["contribution", *circle, "--a-prime", repr(small),
                          "--a-prime", repr(large)], contribution),
        ("dirichlet-variant", ["dirichlet-variant", *circle, "--a-prime",
                               repr(small)], dirichlet),
        ("verify-identities", ["verify-identities"],
         passed("verify-identities")),
        ("verify-vanishing", ["verify-vanishing", *circle, "--a-prime",
                              repr(vanishing_collar)],
         passed("verify-vanishing")),
        ("index", ["index", "--twist", repr(tw_i), "--n-max", str(CLI_N_MAX),
                   "--as-term", repr(AS_TERM), "--g-identity"], index),
        ("relative", ["relative", "--spectrum", str(rel_files[0]),
                      "--spectrum", str(rel_files[1]), "--a-prime",
                      repr(large)], relative),
    ]


def cli_cold(rng, root: Path, workdir: Path, tracer) -> list[Op]:
    env = child_env(root)

    def op(command: str, argv: list[str], check: Callable) -> Op:
        def run() -> list[str]:
            with tracer.span("cli.process", command=command):
                proc = subprocess.run(
                    [sys.executable, "-m", "cyleta.cli", *argv], cwd=root,
                    env=env, capture_output=True, text=True, timeout=60)
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError:
                raise OperationFailed(
                    f"{command}: exit {proc.returncode}, no JSON document; "
                    f"stderr: {proc.stderr[-500:]}") from None
            return [f"{command}: {v}" for v in check(proc.returncode, doc)]
        return command, run

    return [op(*request) for request in cli_requests(rng, workdir)]


def collar_sweep(rng, root: Path, workdir: Path, tracer) -> list[Op]:
    from cyleta import (aps_index, circle_spectrum, contribution,
                        dirichlet_variant_contribution, eta_invariant)

    tw, an = inputs.twist(rng), inputs.angle(rng)
    as_term = rng.uniform(-1.0, 1.0)
    bands = inputs.collars(rng)
    spectra = [(n_max, angle, circle_spectrum(tw, angle, n_max))
               for n_max in SWEEP_N_MAX for angle in (0.0, an)]
    ops: list[Op] = []
    for k, (n_max, angle, spectrum) in enumerate(spectra):
        tag = f".n{2 * n_max + 1}" + (".cplx" if angle else "")

        def eta(spectrum=spectrum, angle=angle, tag=tag):
            with tracer.span("eta.eta_invariant" + tag):
                value = eta_invariant(spectrum).value
            return reference.check_eta(value, tw, angle)

        def con(a, spectrum=spectrum, angle=angle, tag=tag):
            with tracer.span("contribution.contribution" + tag, a_prime=a):
                r = contribution(spectrum, a)
            return reference.check_contribution(
                r.direct_value, r.decomposed_value, r.vanishing_residual,
                r.est_error, tw, angle)

        def dirichlet(a, spectrum=spectrum, angle=angle, tag=tag):
            with tracer.span("contribution.dirichlet" + tag, a_prime=a):
                value = dirichlet_variant_contribution(spectrum, a)
            return reference.check_dirichlet(value, tw, angle, a)

        def aps(spectrum=spectrum, angle=angle, tag=tag):
            with tracer.span("assembly.aps_index" + tag):
                value = aps_index(spectrum, as_term).index_value
            return reference.check_index(value, as_term, tw, angle)

        # The 40001-mode circles take the contribution at the even bands
        # and the Dirichlet variant at the odd ones, so the small collars
        # of band 0 meet both kinds of trace, and the median operation
        # falls among many of them. The 200001-mode circles, which take
        # most of the time, take one band each: circle k takes 2k and
        # 2k + 1.
        if n_max == SWEEP_N_MAX[0]:
            pairs = [(bands[b], bands[b + 1]) for b in range(0, 8, 2)]
        else:
            pairs = [(bands[2 * k], bands[2 * k + 1])]
        ops.append(("eta" + tag, eta))
        for a_con, a_dir in pairs:
            ops += [(f"contribution{tag}", functools.partial(con, a_con)),
                    (f"dirichlet{tag}", functools.partial(dirichlet, a_dir))]
        ops.append(("aps_index" + tag, aps))
    return ops


def spectrum_ingest(rng, root: Path, workdir: Path, tracer) -> list[Op]:
    from cyleta import (circle_spectrum, direct_sum, dump_spectrum,
                        eta_invariant, load_spectrum)

    tw_f = inputs.twist(rng)
    tw_1, tw_2 = inputs.twist(rng), inputs.twist(rng)
    circle_file = workdir / "ingest-circle.json"
    inputs.write_circle(circle_file, tw_f, 0.0, INGEST_N_MAX)
    saved = workdir / "ingest-round-trip.json"
    original = circle_spectrum(*ROUND_TRIP)
    before = eta_invariant(original)

    def load():
        with tracer.span("spectral.load_spectrum"):
            spectrum = load_spectrum(circle_file)
        with tracer.span("eta.eta_invariant"):
            value = eta_invariant(spectrum).value
        return reference.check_eta(value, tw_f, 0.0)

    def merge():
        with tracer.span("spectral.circle_spectrum"):
            parts = [circle_spectrum(tw, 0.0, MERGE_N_MAX)
                     for tw in (tw_1, tw_2)]
        with tracer.span("spectral.direct_sum"):
            merged = direct_sum(*parts)
        with tracer.span("eta.eta_invariant"):
            value = eta_invariant(merged).value
        return reference.check_eta_sum(value, [(tw_1, 0.0), (tw_2, 0.0)])

    def round_trip():
        with tracer.span("spectral.dump_spectrum"):
            dump_spectrum(original, saved)
        with tracer.span("spectral.load_spectrum"):
            reloaded = load_spectrum(saved)
        with tracer.span("eta.eta_invariant"):
            after = eta_invariant(reloaded)
        changed = [f for f in ETA_FIELDS
                   if getattr(after, f) != getattr(before, f)]
        if changed:
            raise OperationFailed(
                f"round trip changed eta fields {changed}; truncated_at "
                f"{original.truncated_at!r} -> {reloaded.truncated_at!r}")
        return []

    return [("load", load), ("direct_sum", merge), ("round_trip", round_trip)]


WORKLOADS = {
    "cli-cold": cli_cold,
    "collar-sweep": collar_sweep,
    "spectrum-ingest": spectrum_ingest,
}
