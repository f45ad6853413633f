"""Print one sha256 per cyleta quantity over a fixed grid of inputs.

    PYTHONPATH=src python tools/output_digest.py

Two trees that print the same lines return the same values, bit for bit,
on the grid below: every result is hashed through its repr, whose floats
are the shortest decimals that round-trip, so a value that moves by one
ulp moves its digest. The CLI documents are hashed as the text
cyleta.cli.main writes, with the exit status. Each line reads
"<quantity> <cases> <sha256>". Uses the standard library and cyleta only.

The grid: circles at four twists, rotation angles 0, 0.7 and 2.3 and
n_max 5 to 2000, and five from_records spectra (a single negative mode, a
symmetric pair, a one-signed list whose floor is refused, a mixed list
with complex traces, and a 401-mode circle read back row by row); collars
a' from 0.003 to 40. Each CLI subcommand runs on flags and on spectrum
files, once with a request that fails. The "inputs" line hashes the
message of each malformed input: a str lambda, a bool multiplicity, 10**400
in a trace part, a zero eigenvalue, and a short row, a missing key or a
short column, each at row 3 of an 8-mode spectrum, read as from_records
rows, record-form data and format-2 columns; the same spectrum with two
defects each (MULTI_DEFECTS), read those three ways and from the format-2
text laid out as dump_spectrum writes it; and the document that
`cyleta eta` writes on one malformed file. The "verify_not_feel_boundary"
line hashes its rows at four eigenvalues, three distances and two time
lists, and the error it raises on times that increase. The
"vanishing_term_detailed" line hashes its value, est_error and partials
on every spectrum at a' in VANISHING_COLLARS, and the "verify_vanishing"
line the library's report (rows, certificate failures and verdict) on
the circles of n_max up to 300 at the same collars, with the default
t-sequence. The "multi_block" line hashes eta, the Dirichlet variant at
a' = 0.003 and 0.05 and vanishing_term_detailed at a' = 0.003 on one
40000-mode from_records spectrum whose collar prefixes span more than one
block of modes: pairs -lam, lam with seeded |lam| below 10000 and seeded
complex traces of modulus below 1, which differ within a pair by at most
1e-7 relative, so that its heat trace cancels and the floor is resolved.
The "constant_columns" line hashes eta, the contribution at a' = 0.5, the
Dirichlet variant at a' = 0.05 and 1, aps_index and the
spectrum_to_json_dict text of three spectra built by BoundarySpectrum
from the arrays of the 40001-mode identity circle at twist 0.3: as they
are, every multiplicity 1 and every trace 1+0j; with the trace past the
first block of 16384 modes made 1-0j; and with the last multiplicity 2.
The "spectrum_files" line hashes the text that dump_spectrum writes for
those three spectra and for two built from the 4001-mode circle at twist
0.25 and angle 0.7 with its traces made real: as they are, every
imaginary part 0.0, and with every third imaginary part made -0.0. The
"spectrum_reload" line hashes what load_spectrum reads back from each of
those five files (the bytes, dtype and strides of its arrays, its
metadata and its eta), and the refusal that load_spectrum raises on the
text dump_spectrum writes for the 8-mode spectrum of the "inputs" line
with one defect each (RELOAD_DEFECTS): a str lambda at row 3, true as
every multiplicity, a constant column one entry short, "format": 2.0 and
a second "data" key.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile
from itertools import product

from cyleta import (BoundarySpectrum, CyletaError, VanishingTermConfig,
                    aps_index, circle_spectrum, contribution,
                    dirichlet_variant_contribution, dump_spectrum,
                    eta_invariant, from_records, load_spectrum,
                    relative_index_check,
                    spectrum_from_json_dict, spectrum_to_json_dict,
                    vanishing_term_detailed,
                    verify_not_feel_boundary, verify_vanishing)
from cyleta.cli import main as cli_main

TWISTS = (0.1, 0.25, 0.5, 0.83)
ANGLES = (0.0, 0.7, 2.3)
N_MAX = (5, 40, 300, 2000)
COLLARS = (0.003, 0.01, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0, 40.0)
VANISHING_COLLARS = (0.05, 0.5, 3.0)
F1 = (1.0, 1.3, -0.7)
AS_TERMS = (0j, 0.5 + 0.25j)
# {(row, column): value} edits; None cuts row 3 short in the form's own way
DEFECTS = ({(3, 0): "4.0"}, {(3, 1): True}, {(3, 2): 10**400}, {(3, 0): 0.0},
           None)
# (edits, metadata) with two defects: two bad rows whose rank order differs
# from their row order, and a zero eigenvalue with a string weyl.c1 or a
# string truncated_at
MULTI_DEFECTS = (({(2, 2): 3.0, (5, 0): 0.0}, {}),
                 ({(3, 0): 0.0}, {"weyl": {"c1": "1.0", "c2": 1.0, "c3": 1.0,
                                           "c4": 0.0}}),
                 ({(3, 0): 0.0}, {"truncated_at": "9.0"}))
# (old, new): one edit of the text dump_spectrum writes for the 8-mode
# spectrum of _malformed, each a defect that load_spectrum refuses
RELOAD_DEFECTS = ((", 4.0, ", ', "4.0", '),
                  ("[1, 1, 1, 1, 1, 1, 1, 1]", "[" + ", ".join(["true"] * 8) + "]"),
                  ('"trace_im": [0.0, ', '"trace_im": ['),
                  ('"format": 2', '"format": 2.0'),
                  ('"format": 2', '"data": [], "format": 2'))
# (lam, y, times) of verify_not_feel_boundary; the last is refused
DECAY = (*product((-2.5, -0.5, 0.5, 3.0), (0.3, 1.0, 2.0),
                  ((1.0, 0.5, 0.1, 0.05, 0.01), (10.0, 1.0, 0.1, 0.001))),
         (1.0, 1.0, (0.5, 1.0)))


def _spectra() -> list:
    circles = [circle_spectrum(twist, angle, n_max)
               for twist, angle, n_max in product(TWISTS, ANGLES, N_MAX)]
    rows = circle_spectrum(0.3, 0.7, 200)
    records = [
        [(-1.0, 1, 1.0, 0.0)],
        [(-2.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0)],
        [(j + 0.5, 1, 1.0, 0.0) for j in range(300)],
        [(-0.5, 1, 1.0, 0.0), (2.0, 1, 0.5, 0.5), (-5.0, 2, 1.5, 0.0),
         (-12.0, 1, 0.0, 1.0), (-26.9, 1, 1.0, 0.0), (-27.1, 1, -1.0, 0.0),
         (30.0, 1, 1.0, 0.0)],
        list(zip(rows.lams.tolist(), rows.multiplicity.tolist(),
                 rows.traces.real.tolist(), rows.traces.imag.tolist())),
    ]
    return circles + [from_records(r) for r in records]


def _long_records():
    """The 40000-mode spectrum of the "multi_block" line."""
    rng = random.Random(33)
    rows = []
    for j in range(20000):
        lam = 0.5 * j + 0.25 + 0.2 * rng.random()
        r, phi = 0.2 + 0.7 * rng.random(), 2.0 * math.pi * rng.random()
        re, im = r * math.cos(phi), r * math.sin(phi)
        skew = 1.0 + 1e-7 * (2.0 * rng.random() - 1.0)
        rows += [(-lam, 1, re * skew, im * skew), (lam, 1, re, im)]
    return from_records(rows)


def _meta(spectrum) -> dict:
    return {name: getattr(spectrum, name) for name in (
        "weyl_c1", "weyl_c2", "trace_bound_c3", "trace_bound_c4", "truncated_at")}


def _constant_columns() -> list:
    """The three spectra of the "constant_columns" line."""
    circle = circle_spectrum(0.3, 0.0, 20000)
    meta = _meta(circle)
    signed, last = circle.traces.copy(), circle.multiplicity.copy()
    signed[20000] = complex(1.0, -0.0)
    last[-1] = 2
    return [BoundarySpectrum(circle.lams, mult, traces, **meta) for mult, traces
            in ((circle.multiplicity, circle.traces), (circle.multiplicity, signed),
                (last, circle.traces))]


def _real_traces() -> list:
    """The two real-trace spectra of the "spectrum_files" line."""
    circle = circle_spectrum(0.25, 0.7, 2000)
    real = circle.traces.real.astype(complex)
    mixed = real.copy()
    mixed.imag[::3] = -0.0
    return [BoundarySpectrum(circle.lams, circle.multiplicity, traces,
                             **_meta(circle)) for traces in (real, mixed)]


def _written(spectrum) -> str:
    """The text that dump_spectrum writes for a spectrum."""
    with _in_scratch():
        dump_spectrum(spectrum, "spectrum.json")
        with open("spectrum.json") as fh:
            return fh.read()


def _reloaded(spectrum) -> str:
    """What load_spectrum reads back from the file dump_spectrum writes."""
    with _in_scratch():
        dump_spectrum(spectrum, "spectrum.json")
        back = load_spectrum("spectrum.json")
    arrays = [f"{a.dtype} {a.strides} {hashlib.sha256(a.tobytes()).hexdigest()}"
              for a in (back.lams, back.multiplicity, back.traces)]
    return "\n".join([*arrays, repr(_meta(back)), repr(eta_invariant(back))])


def _reload_refusals() -> list:
    """The error load_spectrum raises on each RELOAD_DEFECTS text, or
    "accepted"."""
    text = _written(from_records([(float(k + 1), 1, 1.0, 0.0) for k in range(8)]))
    cases = []
    for old, new in RELOAD_DEFECTS:
        with _in_scratch():
            with open("spectrum.json", "w") as fh:
                fh.write(text.replace(old, new, 1))
            try:
                load_spectrum("spectrum.json")
                cases.append("accepted")
            except CyletaError as exc:
                cases.append(f"{type(exc).__name__}: {exc}")
    return cases


def _cli_requests() -> dict:
    circle = ["--twist", "0.25", "--rotation-angle", "0.7", "--n-max", "2000"]
    small = ["--twist", "0.3", "--n-max", "200"]
    files = ["--spectrum", "one.json", "--spectrum", "two.json"]
    collars = [arg for a in COLLARS for arg in ("--a-prime", str(a))]
    return {
        "eta": [["eta", *circle], ["eta", "--spectrum", "one.json"],
                ["eta", "--twist", "1.0", "--n-max", "5"]],
        "contribution": [["contribution", *circle, *collars],
                         ["contribution", *circle, "--f1", "-0.7", *collars],
                         ["contribution", "--spectrum", "two.json", *collars],
                         ["contribution", *circle, "--a-prime", "-1"]],
        "dirichlet-variant": [["dirichlet-variant", *circle, *collars],
                              ["dirichlet-variant", "--spectrum", "one.json",
                               *collars],
                              ["dirichlet-variant", *circle, "--a-prime", "0"]],
        "verify-identities": [["verify-identities"]],
        "verify-vanishing": [["verify-vanishing", *small, "--a-prime", "0.5"],
                             ["verify-vanishing", "--spectrum", "one.json",
                              "--a-prime", "2.0", "--t", "0.5", "--t", "0.05"],
                             ["verify-vanishing", *small, "--a-prime", "0.5",
                              "--cutoff-rank", "3"],
                             ["verify-vanishing", *small, "--a-prime", "0.5",
                              "--a-prime", "1"]],
        "index": [["index", *circle, "--as-term", "0.5,0"],
                  ["index", *circle, "--as-term", "0.5,0.25", "--f1", "-0.7"],
                  ["index", "--twist", "0.5", "--n-max", "300", "--g-identity"],
                  ["index", "--spectrum", "two.json", "--as-term", "1,-1",
                   "--f1", "2", "--g-identity"],
                  ["index", *circle, "--a-prime", "0.5"]],
        "relative": [["relative", *files, "--a-prime", "0.5"],
                     ["relative", *files, "--a-prime", "0.05", "--as-term",
                      "1,0", "--as-term", "0.25,-1"],
                     ["relative", "--spectrum", "one.json", "--a-prime", "1"]],
    }


@contextlib.contextmanager
def _in_scratch():
    """Run the block from a new scratch directory, so that file names in
    the documents stay relative."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            yield
        finally:
            os.chdir(cwd)


def _cli_documents() -> dict:
    """Each subcommand's requests as the text cyleta.cli.main writes, with
    its exit status, run in process from a scratch directory that holds
    the spectrum files one.json and two.json."""
    documents = {}
    with _in_scratch():
        dump_spectrum(circle_spectrum(0.25, 0.7, 400), "one.json")
        dump_spectrum(circle_spectrum(0.3, 0.7, 400), "two.json")
        for command, requests in _cli_requests().items():
            documents[f"cli {command}"] = [_run_cli(argv) for argv in requests]
    return documents


def _malformed(form: str, defect, meta: dict) -> object:
    """An 8-mode spectrum with the defect's edits, as from_records rows, or
    a record-form or format-2 document with the metadata meta."""
    rows = [[float(k + 1), 1, 1.0, 0.0] for k in range(8)]
    for (i, column), value in (defect or {}).items():
        rows[i][column] = value
    if form == "rows":
        if defect is None:
            rows[3] = rows[3][:3]
        return [tuple(row) for row in rows]
    if form == "records":
        doc = {"data": [{"lambda": lam, "multiplicity": mult, "trace": [re, im]}
                        for lam, mult, re, im in rows], **meta}
        if defect is None:
            del doc["data"][3]["trace"]
        return doc
    names = ("lambda", "multiplicity", "trace_re", "trace_im")
    doc = {"format": 2, "data": dict(zip(names, map(list, zip(*rows)))), **meta}
    if defect is None:
        del doc["data"]["trace_im"][3:]
    return doc


def _refusal(form: str, defect, meta: dict) -> str:
    """The error that reading the malformed input raises, or "accepted";
    the "dumped" form loads the format-2 document's text with sorted keys,
    the layout of dump_spectrum."""
    value = _malformed(form, defect, meta)
    try:
        if form == "rows":
            from_records(value)
        elif form == "dumped":
            with _in_scratch():
                with open("spectrum.json", "w") as fh:
                    fh.write(json.dumps(value, sort_keys=True) + "\n")
                load_spectrum("spectrum.json")
        else:
            spectrum_from_json_dict(value)
    except CyletaError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def _decay(lam: float, y: float, times: tuple) -> str:
    """verify_not_feel_boundary's rows, or the error it raises."""
    try:
        return repr(verify_not_feel_boundary(lam, y, times))
    except CyletaError as exc:
        return f"{type(exc).__name__}: {exc}"


def _input_cases() -> list:
    cases = [_refusal(form, defect, {}) for form in ("rows", "records", "columns")
             for defect in DEFECTS]
    cases += [_refusal(form, defect, meta) for defect, meta in MULTI_DEFECTS
              for form in ("rows", "records", "columns", "dumped")]
    with _in_scratch():
        with open("malformed.json", "w") as fh:
            json.dump(_malformed("records", DEFECTS[0], {}), fh)
        cases.append(_run_cli(["eta", "--spectrum", "malformed.json"]))
    return cases


def _run_cli(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main(argv)
    return f"{argv!r} exit {status}\n{out.getvalue()}"


def digests() -> dict:
    """Every quantity's cases, each a str, by quantity name."""
    spectra = _spectra()
    cases = {"eta": [repr(eta_invariant(s)) for s in spectra]}
    for f1 in F1:
        cases[f"contribution f1={f1!r}"] = [
            repr(contribution(s, a, f1)) for s in spectra for a in COLLARS]
    cases["dirichlet_variant_contribution"] = [
        repr(dirichlet_variant_contribution(s, a))
        for s in spectra for a in COLLARS]
    cases["aps_index"] = [repr(aps_index(s, z, identity))
                          for s in spectra for z in AS_TERMS
                          for identity in (None, True, False)]
    cases["relative_index_check"] = [
        repr(relative_index_check(s1, AS_TERMS[1], s2, 0.75, a))
        for s1, s2 in zip(spectra, spectra[1:] + spectra[:1])
        for a in COLLARS[::2]]
    cases["verify_not_feel_boundary"] = [_decay(*case) for case in DECAY]
    cases["vanishing_term_detailed"] = [
        repr(vanishing_term_detailed(s, a))
        for s in spectra for a in VANISHING_COLLARS]
    small = [circle_spectrum(twist, angle, n_max) for twist, angle, n_max
             in product(TWISTS, ANGLES, N_MAX) if n_max <= 300]
    cases["verify_vanishing"] = [
        repr(verify_vanishing(s, VanishingTermConfig(a_prime=a)))
        for s in small for a in VANISHING_COLLARS]
    long = _long_records()
    cases["multi_block"] = [
        repr(eta_invariant(long)),
        *(repr(dirichlet_variant_contribution(long, a)) for a in (0.003, 0.05)),
        repr(vanishing_term_detailed(long, 0.003))]
    constant = _constant_columns()
    cases["constant_columns"] = [
        case for s in constant for case in (
            repr(eta_invariant(s)), repr(contribution(s, 0.5)),
            *(repr(dirichlet_variant_contribution(s, a)) for a in (0.05, 1.0)),
            repr(aps_index(s, AS_TERMS[1])),
            json.dumps(spectrum_to_json_dict(s), sort_keys=True))]
    files = constant + _real_traces()
    cases["spectrum_files"] = [_written(s) for s in files]
    cases["spectrum_reload"] = [_reloaded(s) for s in files] + _reload_refusals()
    return {**cases, **_cli_documents(), "inputs": _input_cases()}


def main() -> None:
    for name, items in digests().items():
        sha = hashlib.sha256("\n".join(items).encode()).hexdigest()
        print(f"{name} {len(items)} {sha}")


if __name__ == "__main__":
    main()
