"""Command-line interface: JSON envelopes, exit codes, file output."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cyleta
from cyleta import (circle_spectrum, dirichlet_variant_contribution,
                    dump_spectrum, from_records, load_spectrum,
                    relative_index_check)
from cyleta.cli import main


def _run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return status, doc


def _write_single(tmp_path, lam, name="spec.json"):
    path = tmp_path / name
    dump_spectrum(from_records([(lam, 1, 1.0, 0.0)]), path)
    return str(path)


# ---------------------------------------------------------------------------
# computations


def test_eta_of_circle(capsys):
    status, doc = _run(capsys, "eta", "--twist", "0.25", "--n-max", "400")
    assert status == 0
    assert doc["errors"] == []
    assert doc["version"] == "0.1.0"
    assert doc["request"]["command"] == "eta"
    assert "config" not in doc["request"]
    assert doc["result"]["value"] == pytest.approx([0.5, 0.0], abs=1e-8)


def test_repeated_requests_are_byte_identical(capsys):
    argv = ("eta", "--twist", "0.25", "--n-max", "200")
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_contribution_with_repeated_collars(capsys):
    status, doc = _run(capsys, "contribution", "--twist", "0.25",
                       "--n-max", "200", "--a-prime", "0.3",
                       "--a-prime", "0.8")
    assert status == 0
    reports = doc["result"]["reports"]
    assert [r["a_prime"] for r in reports] == [0.3, 0.8]
    for report in reports:
        assert report["direct_value"] == pytest.approx([-0.25, 0.0],
                                                       abs=1e-8)


def test_dirichlet_variant_from_file(capsys, tmp_path):
    path = _write_single(tmp_path, 2.0)
    status, doc = _run(capsys, "dirichlet-variant", "--spectrum", path,
                       "--a-prime", "0.5")
    assert status == 0
    values = doc["result"]["values"]
    assert values[0]["a_prime"] == 0.5
    assert values[0]["value"] == pytest.approx([-0.5, 0.0], abs=1e-10)
    assert values[0]["est_error"] > 0.0
    library = dirichlet_variant_contribution(load_spectrum(path), 0.5)
    assert values[0] == {"a_prime": 0.5, **library.to_json_dict()}


def test_index_eta_route(capsys):
    status, doc = _run(capsys, "index", "--twist", "0.25", "--n-max", "200",
                       "--as-term", "0.25")
    assert status == 0
    assert doc["result"]["route"] == "aps"
    entry = doc["result"]["reports"][0]
    assert entry["index_value"] == pytest.approx([0.0, 0.0], abs=1e-8)
    # identity group element auto-detected, so the residual is reported
    assert entry["integrality_residual"] <= 1e-8
    assert entry["est_error"] >= 0.0


def test_index_contribution_route(capsys):
    status, doc = _run(capsys, "index", "--twist", "0.25", "--n-max", "200",
                       "--as-term", "0.25,0", "--a-prime", "0.5",
                       "--g-identity")
    assert status == 0
    assert doc["result"]["route"] == "contribution"
    entry = doc["result"]["reports"][0]
    assert entry["a_prime"] == 0.5
    assert entry["index_value"] == pytest.approx([0.0, 0.0], abs=1e-8)
    assert isinstance(entry["integrality_residual"], float)


def test_relative_between_spectrum_files(capsys, tmp_path):
    spec = circle_spectrum(0.25, 0.0, 200)
    path1 = tmp_path / "one.json"
    path2 = tmp_path / "two.json"
    dump_spectrum(spec, path1)
    dump_spectrum(spec, path2)
    status, doc = _run(capsys, "relative", "--spectrum", str(path1),
                       "--spectrum", str(path2), "--a-prime", "0.5",
                       "--as-term", "1", "--as-term", "0,1")
    assert status == 0
    result = doc["result"]
    assert result["value"] == pytest.approx([0.0, 0.0], abs=1e-10)
    assert result["as_terms"] == [[1.0, 0.0], [0.0, 1.0]]
    assert result["est_error"] > 0.0
    library = relative_index_check(load_spectrum(path1), 1.0,
                                   load_spectrum(path2), 1j, 0.5)
    assert result == {"a_prime": 0.5, "as_terms": result["as_terms"],
                      **library.to_json_dict()}


# ---------------------------------------------------------------------------
# verification commands and their exit codes


def test_verify_identities_passes(capsys):
    status, doc = _run(capsys, "verify-identities")
    assert status == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["decomposition"]["max_abs"] <= 1e-11
    assert doc["result"]["boundary_vanish"]["max_abs"] <= 1e-12


def test_verify_vanishing_passes(capsys):
    status, doc = _run(capsys, "verify-vanishing", "--twist", "0.25",
                       "--n-max", "200", "--a-prime", "0.5")
    assert status == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["certified"] is True
    assert doc["result"]["final_abs"] <= 1e-6


def test_verify_vanishing_reports_certificate_failure(capsys):
    # Sampling the dominated series at rank 100 of a 401-mode spectrum
    # proves nothing; the command must say so and exit 2.
    status, doc = _run(capsys, "verify-vanishing", "--twist", "0.25",
                       "--n-max", "200", "--a-prime", "0.5",
                       "--cutoff-rank", "100")
    assert status == 2
    assert doc["result"]["passed"] is False
    assert doc["result"]["certificate_failures"]


# ---------------------------------------------------------------------------
# file output


def test_output_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    status = main(["eta", "--twist", "0.5", "--n-max", "50",
                   "--output", str(out_path)])
    assert status == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["value"] == pytest.approx([0.0, 0.0], abs=1e-12)
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_one_document_on_stdout(capsys, tmp_path,
                                                     target):
    # A missing directory fails in mkstemp, a directory as the target in
    # os.replace; either way one error document names the path, with no
    # traceback and no temporary file left behind.
    out_path = tmp_path / "missing" / "out.json" if target == "missing" \
        else tmp_path
    status = main(["eta", "--twist", "0.25", "--n-max", "10",
                   "--output", str(out_path)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert status == 1
    assert doc["result"] is None
    assert doc["request"]["output"] == str(out_path)
    assert doc["errors"] == [f"cannot write output file {out_path}: "
                             + ("No such file or directory"
                                if target == "missing" else "Is a directory")]
    assert captured.err == ""
    assert not list(tmp_path.rglob("*.tmp"))


# ---------------------------------------------------------------------------
# error handling


def test_domain_violation_is_reported_not_raised(capsys):
    status, doc = _run(capsys, "eta", "--twist", "1.5", "--n-max", "50")
    assert status == 1
    assert doc["result"] is None
    assert "InvalidSpectrumError" in doc["errors"][0]


@pytest.mark.parametrize("argv", [
    ("eta", "--twist", "0.25", "--n-max", "50", "--spectrum", "x.json"),
    ("eta",),
    ("eta", "--twist", "0.25"),
    ("eta", "--spectrum", "/nonexistent/spectrum.json"),
    ("index", "--twist", "0.25", "--n-max", "50", "--as-term", "a,b"),
    ("contribution", "--twist", "0.25", "--n-max", "50"),
], ids=["both-sources", "no-source", "missing-n-max", "unreadable-file",
        "bad-as-term", "missing-a-prime"])
def test_input_errors_exit_one(capsys, argv):
    status, doc = _run(capsys, *argv)
    assert status == 1
    assert doc["result"] is None
    assert doc["errors"]


@pytest.mark.parametrize("flags", [
    ("--split-T", "1"),
    ("--split-T", "0"),
    ("--abs-tol", "0"),
    ("--rel-tol", "-1e-10"),
    ("--max-subdivisions", "4"),
    ("--max-subdivisions", "9.5"),
], ids=["split-T", "split-T-zero", "abs-tol", "rel-tol", "max-subdivisions",
        "max-subdivisions-fraction"])
def test_quadrature_flags_are_refused(capsys, flags):
    # eta and the contribution are closed forms; there is no quadrature
    # left to configure
    status, doc = _run(capsys, "eta", "--twist", "0.25", "--n-max", "10",
                       *flags)
    assert status == 1
    assert doc["result"] is None
    assert "unrecognized arguments" in doc["errors"][0]


@pytest.mark.parametrize("argv", [
    ("index", "--twist", "0.25", "--n-max", "10", "--as-term", "nan"),
    ("index", "--twist", "0.25", "--n-max", "10", "--as-term", "inf,0"),
    ("index", "--twist", "0.25", "--n-max", "10", "--as-term", "0,nan",
     "--a-prime", "0.5"),
    ("eta", "--twist", "0.25", "--n-max", "5", "--rotation-angle", "inf"),
    ("contribution", "--twist", "0.25", "--n-max", "5", "--rotation-angle",
     "nan", "--a-prime", "0.5"),
], ids=["aps-nan", "aps-inf", "contribution-nan", "eta-angle-inf",
        "contribution-angle-nan"])
def test_non_finite_arguments_are_refused_by_name(capsys, argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    name = "rotation_angle" if "--rotation-angle" in argv else "as_term"
    assert status == 1
    assert captured.err == ""
    assert doc["result"] is None
    assert doc["errors"][0].startswith(f"DomainError: {name} must be finite")


def test_a_collar_whose_square_overflows_is_certified_quietly(capsys):
    status = main(["verify-vanishing", "--twist", "0.25", "--n-max", "10",
                   "--a-prime", "1e200"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert status == 0
    assert captured.err == ""
    assert doc["result"]["certified"] and doc["result"]["passed"]
    assert doc["result"]["final_abs"] == 0.0


def test_bad_t_sequence_exits_one(capsys):
    status, doc = _run(capsys, "verify-vanishing", "--twist", "0.25",
                       "--n-max", "50", "--a-prime", "0.5",
                       "--t", "0.1", "--t", "0.5")
    assert status == 1
    assert "DomainError" in doc["errors"][0]


def test_relative_needs_two_files(capsys, tmp_path):
    path = _write_single(tmp_path, 2.0)
    status, doc = _run(capsys, "relative", "--spectrum", path,
                       "--a-prime", "0.5")
    assert status == 1
    assert "exactly two" in doc["errors"][0]


# ---------------------------------------------------------------------------
# module entry point


# Runs in a fresh interpreter with scipy blocked, so that any attempt to
# import it raises ImportError: all seven subcommands must still succeed,
# and none may leave a scipy module behind.
_SCIPY_PROBE = """
import contextlib, io, sys
sys.modules["scipy"] = None
import cyleta.cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cyleta.cli.main(argv)
    assert status == 0, (argv, status)

first, second = sys.argv[1:]
circle = ["--twist", "0.25", "--n-max", "200"]
for argv in (
        ["eta", *circle], ["eta", "--spectrum", first],
        ["contribution", *circle, "--a-prime", "0.3", "--a-prime", "0.8"],
        ["dirichlet-variant", "--spectrum", first, "--a-prime", "0.5"],
        ["index", *circle, "--as-term", "0.25"],
        ["index", *circle, "--as-term", "0.25,0", "--a-prime", "0.5",
         "--g-identity"],
        ["relative", "--spectrum", first, "--spectrum", second,
         "--a-prime", "0.5", "--as-term", "1", "--as-term", "0,1"],
        ["verify-identities"],
        ["verify-vanishing", *circle, "--a-prime", "0.5"],
        ["verify-vanishing", "--spectrum", first, "--a-prime", "2"]):
    run(argv)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
"""


def test_cli_leaves_scipy_unloaded(tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    dump_spectrum(circle_spectrum(0.25, 0.7, 200), paths[0])
    dump_spectrum(circle_spectrum(0.6, 0.0, 150), paths[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *map(str, paths)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_module_of_the_package_imports_scipy():
    package = Path(cyleta.__file__).parent
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imported.update((name, path.name) for name in names
                            if name.split(".")[0] == "scipy")
    assert len(list(package.glob("*.py"))) >= 10
    assert imported == {}


# cyleta.__all__: one public function per quantity, its records, the
# verifiers and their reports, the spectrum I/O and the error types
PUBLIC = {
    "__version__", "CyletaError", "InvalidSpectrumError", "InvalidTraceError",
    "DomainError", "VerificationError", "BoundarySpectrum", "FloorAnalysis",
    "circle_spectrum", "from_records", "direct_sum", "tail_bound",
    "spectrum_from_json_dict", "spectrum_to_json_dict", "load_spectrum",
    "dump_spectrum", "DeviationReport", "verify_decomposition",
    "verify_boundary_vanish", "verify_not_feel_boundary", "EtaResult",
    "eta_invariant", "VanishingTermConfig", "VanishingReport",
    "vanishing_term_detailed", "verify_vanishing", "Estimate",
    "ContributionReport", "contribution", "dirichlet_variant_contribution",
    "IndexReport", "assemble_index", "aps_index", "relative_index_check",
}


def test_the_package_exports_34_names_and_each_resolves():
    assert len(cyleta.__all__) == len(set(cyleta.__all__)) == 34
    assert set(cyleta.__all__) == PUBLIC
    namespace = {}
    exec("from cyleta import *", namespace)
    assert all(namespace[name] is getattr(cyleta, name) for name in PUBLIC)


def _cyleta_imports(path):
    """(module, name) for each name the file imports from another cyleta
    module, with name None where it imports the module itself."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cyleta."):
                    yield alias.name.removeprefix("cyleta."), None
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("cyleta.")):
            module = (node.module or "").removeprefix("cyleta.")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)


def _is_public(module, name):
    """A dunder such as __version__, a module whose name has no leading
    underscore, or a name in the __all__ of such a module."""
    if name and name.startswith("__") and name.endswith("__"):
        return True
    if module.startswith("_"):
        return False
    return name is None or name in importlib.import_module(
        f"cyleta.{module}").__all__


def test_the_cli_imports_public_names_and_the_runtime_no_verifier():
    package = Path(cyleta.__file__).parent
    imported = list(_cyleta_imports(package / "cli.py"))
    private = [pair for pair in imported if not _is_public(*pair)]
    assert imported and private == []
    verifiers = {"vanishing", "identities"}
    reached = [(runtime, module)
               for runtime in ("spectral", "eta", "contribution", "assembly")
               for module, _ in _cyleta_imports(package / f"{runtime}.py")
               if module in verifiers]
    assert reached == []


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "cyleta.cli", "eta", "--twist", "0.5",
         "--n-max", "50"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["value"] == pytest.approx([0.0, 0.0], abs=1e-12)
