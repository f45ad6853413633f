"""Command-line front end emitting deterministic JSON reports.

Every invocation runs one computation or verification and writes a single
JSON document {"request": ..., "result": ..., "errors": [...], "version":
...} with sorted keys and fixed indentation, so identical requests produce
byte-identical output. Exit status is 0 on success, 1 on input or
computation errors (bad flags, unreadable or malformed spectrum files,
domain violations), and 2 when a verification command finds a violation
beyond tolerance; the evidence is embedded in the document either way.

The spectrum comes from --spectrum PATH (the JSON format of the spectral
module) or from the --twist/--rotation-angle/--n-max circle family;
exactly one of the two sources must be given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from ._version import __version__
from .assembly import aps_index, assemble_index, relative_index_check
from .contribution import contribution, dirichlet_variant_contribution
from .errors import CyletaError
from .eta import eta_invariant
from .identities import (BOUNDARY_GRID, DECOMPOSITION_GRID,
                         verify_boundary_vanish, verify_decomposition)
from .spectral import BoundarySpectrum, circle_spectrum, load_spectrum
from .vanishing import VanishingTermConfig, verify_vanishing

__all__ = ["main", "run"]

# Verification thresholds used by the verify-* commands. These are the
# acceptance tolerances of the corresponding identities.
_DECOMPOSITION_TOL = 1e-11
_BOUNDARY_TOL = 1e-12
_VANISHING_TOL = 1e-6


class _InputError(Exception):
    """Bad command line, unreadable file, or malformed content."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _InputError(message)


def _add_spectrum_flags(p: argparse.ArgumentParser, repeatable: bool = False) -> None:
    p.add_argument("--spectrum", action="append", default=None,
                   metavar="PATH",
                   help="spectrum JSON file" + (" (repeat for each operator)"
                                                if repeatable else ""))
    p.add_argument("--twist", type=float, default=None,
                   help="circle holonomy twist in (0, 1)")
    p.add_argument("--rotation-angle", type=float, default=0.0,
                   help="circle rotation angle of the group element "
                        "(default 0, the identity)")
    p.add_argument("--n-max", type=int, default=None,
                   help="largest circle mode index (required with --twist)")


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the JSON document here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="cyleta",
                     description="Spectral eta invariants and cylinder "
                                 "index contributions, as JSON reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eta = sub.add_parser("eta", help="eta invariant of a spectrum")
    _add_spectrum_flags(p_eta)
    _add_output_flag(p_eta)

    p_con = sub.add_parser("contribution",
                           help="contribution from infinity A_g(a')")
    _add_spectrum_flags(p_con)
    _add_output_flag(p_con)
    p_con.add_argument("--a-prime", action="append", type=float,
                       required=True, help="collar coordinate (repeatable)")
    p_con.add_argument("--f1", type=float, default=1.0,
                       help="warp factor f1(a') (default 1)")

    p_dir = sub.add_parser("dirichlet-variant",
                           help="the Dirichlet-condition variant A_g^F(a')")
    _add_spectrum_flags(p_dir)
    _add_output_flag(p_dir)
    p_dir.add_argument("--a-prime", action="append", type=float,
                       required=True, help="collar coordinate (repeatable)")

    p_vid = sub.add_parser("verify-identities",
                           help="kernel decomposition and boundary "
                                "vanishing on the default grids")
    _add_output_flag(p_vid)

    p_vva = sub.add_parser("verify-vanishing",
                           help="regularized vanishing sums along a "
                                "t-sequence, with the summability "
                                "certificate")
    _add_spectrum_flags(p_vva)
    _add_output_flag(p_vva)
    p_vva.add_argument("--a-prime", action="append", type=float,
                       required=True, help="collar coordinate (exactly one)")
    p_vva.add_argument("--t", action="append", type=float, default=None,
                       help="regularization time in (0, 1], strictly "
                            "decreasing (repeatable; default 0.5 0.1 0.02)")
    p_vva.add_argument("--cutoff-rank", type=int, default=10_000,
                       help="rank at which the summability certificate "
                            "samples the dominated series")

    p_idx = sub.add_parser("index",
                           help="assembled index: as_term plus the "
                                "contribution (with --a-prime) or as_term "
                                "minus eta/2 (without)")
    _add_spectrum_flags(p_idx)
    _add_output_flag(p_idx)
    p_idx.add_argument("--as-term", default="0,0", metavar="RE,IM",
                       help="interior characteristic-form integral")
    p_idx.add_argument("--a-prime", action="append", type=float,
                       default=None, help="collar coordinate (repeatable); "
                                          "omit for the eta/2 route")
    p_idx.add_argument("--f1", type=float, default=1.0,
                       help="warp factor f1(a') (default 1)")
    p_idx.add_argument("--g-identity", action="store_true",
                       help="flag the group element as the identity so the "
                            "integrality residual is reported")

    p_rel = sub.add_parser("relative",
                           help="relative index defect between two spectra")
    p_rel.add_argument("--spectrum", action="append", default=None,
                       metavar="PATH", required=True,
                       help="spectrum JSON file (give exactly twice)")
    _add_output_flag(p_rel)
    p_rel.add_argument("--a-prime", action="append", type=float,
                       required=True, help="collar coordinate (exactly one)")
    p_rel.add_argument("--as-term", action="append", default=None,
                       metavar="RE,IM",
                       help="interior term per operator (up to twice, "
                            "default 0)")

    return parser


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _InputError(f"expected RE or RE,IM for a complex value, got {text!r}")


def _spectrum_from_args(args: argparse.Namespace) -> BoundarySpectrum:
    paths = getattr(args, "spectrum", None) or []
    has_file = len(paths) > 0
    has_circle = args.twist is not None
    if has_file == has_circle:
        raise _InputError(
            "give exactly one spectrum source: --spectrum PATH or --twist")
    if has_file:
        if len(paths) != 1:
            raise _InputError("this command takes exactly one --spectrum")
        return _load_spectrum_file(paths[0])
    if args.n_max is None:
        raise _InputError("--n-max is required with --twist")
    return circle_spectrum(args.twist, args.rotation_angle, args.n_max)


def _load_spectrum_file(path: str) -> BoundarySpectrum:
    try:
        return load_spectrum(path)
    except OSError as exc:
        raise _InputError(f"cannot read spectrum file {path}: {exc}") from exc
    except CyletaError as exc:
        raise _InputError(f"spectrum file {path}: {exc}") from exc


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _request_echo(args: argparse.Namespace) -> dict:
    echo: dict = {"command": args.command}
    for key in ("spectrum", "twist", "rotation_angle", "n_max", "f1",
                "cutoff_rank", "g_identity", "output"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    if hasattr(args, "a_prime"):
        echo["a_prime_list"] = args.a_prime
    if hasattr(args, "t"):
        echo["t_sequence"] = args.t
    if hasattr(args, "as_term"):
        terms = args.as_term
        if isinstance(terms, list):
            echo["as_terms"] = [_complex_pair(_parse_complex(t))
                                for t in terms] if terms else None
        elif terms is not None:
            echo["as_term"] = _complex_pair(_parse_complex(terms))
    return echo


def _single_a_prime(args: argparse.Namespace) -> float:
    if len(args.a_prime) != 1:
        raise _InputError("this command takes exactly one --a-prime")
    return args.a_prime[0]


def _run_eta(args: argparse.Namespace) -> tuple[dict, int]:
    spectrum = _spectrum_from_args(args)
    return eta_invariant(spectrum).to_json_dict(), 0


def _run_contribution(args: argparse.Namespace) -> tuple[dict, int]:
    spectrum = _spectrum_from_args(args)
    reports = [contribution(spectrum, ap, args.f1).to_json_dict()
               for ap in args.a_prime]
    return {"reports": reports}, 0


def _run_dirichlet(args: argparse.Namespace) -> tuple[dict, int]:
    spectrum = _spectrum_from_args(args)
    values = [{"a_prime": ap,
               **dirichlet_variant_contribution(spectrum, ap).to_json_dict()}
              for ap in args.a_prime]
    return {"values": values}, 0


def _run_verify_identities(args: argparse.Namespace) -> tuple[dict, int]:
    decomposition = verify_decomposition(DECOMPOSITION_GRID)
    boundary = verify_boundary_vanish(BOUNDARY_GRID)
    passed = (decomposition.max_abs <= _DECOMPOSITION_TOL
              and boundary.max_abs <= _BOUNDARY_TOL)
    result = {
        "decomposition": decomposition.to_json_dict(),
        "boundary_vanish": boundary.to_json_dict(),
        "thresholds": {"decomposition": _DECOMPOSITION_TOL,
                       "boundary_vanish": _BOUNDARY_TOL},
        "passed": passed,
    }
    return result, 0 if passed else 2


def _run_verify_vanishing(args: argparse.Namespace) -> tuple[dict, int]:
    spectrum = _spectrum_from_args(args)
    a_prime = _single_a_prime(args)
    kwargs = {"a_prime": a_prime, "cutoff_rank": args.cutoff_rank}
    if args.t is not None:
        kwargs["t_sequence"] = tuple(args.t)
    report = verify_vanishing(spectrum, VanishingTermConfig(**kwargs))
    final_abs = abs(report.rows[-1][1])
    passed = report.certified and final_abs <= _VANISHING_TOL
    result = {**report.to_json_dict(), "final_abs": final_abs,
              "tolerance": _VANISHING_TOL, "passed": passed}
    return result, 0 if passed else 2


def _run_index(args: argparse.Namespace) -> tuple[dict, int]:
    spectrum = _spectrum_from_args(args)
    as_term = _parse_complex(args.as_term)
    if args.a_prime:
        reports = [{"a_prime": ap, **assemble_index(
            as_term, contribution(spectrum, ap, args.f1),
            g_is_identity=args.g_identity).to_json_dict()}
            for ap in args.a_prime]
        return {"route": "contribution", "reports": reports}, 0
    report = aps_index(spectrum, as_term,
                       g_is_identity=args.g_identity or None)
    return {"route": "aps", "reports": [report.to_json_dict()]}, 0


def _run_relative(args: argparse.Namespace) -> tuple[dict, int]:
    paths = args.spectrum or []
    if len(paths) != 2:
        raise _InputError("relative takes exactly two --spectrum files")
    a_prime = _single_a_prime(args)
    terms = args.as_term or []
    if len(terms) > 2:
        raise _InputError("relative takes at most two --as-term values")
    as1, as2 = [_parse_complex(t) for t in terms] + [0j] * (2 - len(terms))
    spec1 = _load_spectrum_file(paths[0])
    spec2 = _load_spectrum_file(paths[1])
    result = relative_index_check(spec1, as1, spec2, as2,
                                  a_prime).to_json_dict()
    result["a_prime"] = a_prime
    result["as_terms"] = [_complex_pair(as1), _complex_pair(as2)]
    return result, 0


_RUNNERS = {"eta": _run_eta, "contribution": _run_contribution,
            "dirichlet-variant": _run_dirichlet, "index": _run_index,
            "verify-identities": _run_verify_identities,
            "verify-vanishing": _run_verify_vanishing, "relative": _run_relative}


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Dispatch a parsed request; returns (document, exit_status)."""
    doc = {"request": _request_echo(args), "errors": [],
           "version": __version__}
    try:
        result, status = _RUNNERS[args.command](args)
    except _InputError:
        raise
    except CyletaError as exc:
        doc["result"] = None
        doc["errors"] = [f"{type(exc).__name__}: {exc}"]
        return doc, 1
    doc["result"] = result
    return doc, status


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _InputError as exc:
        doc = {"request": {"argv": list(argv) if argv is not None
                           else sys.argv[1:]},
               "result": None, "errors": [str(exc)], "version": __version__}
        _emit(doc, None)
        return 1
    try:
        doc, status = run(args)
    except _InputError as exc:
        doc = {"request": {"command": getattr(args, "command", None)},
               "result": None, "errors": [str(exc)], "version": __version__}
        _emit(doc, getattr(args, "output", None))
        return 1
    _emit(doc, args.output)
    return status


if __name__ == "__main__":
    sys.exit(main())
