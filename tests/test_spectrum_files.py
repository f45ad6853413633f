"""The two spectrum file forms: format 2 (four flat columns), which
dump_spectrum writes, and the older record form, which load_spectrum still
reads. A record-form document and its format-2 re-dump load to the same
spectrum bit for bit, a file that dump_spectrum wrote loads as its text
parsed whole does, and a malformed column names the column and the first
bad index. Every input is built by one route, which checks each mode once
and still names the lowest bad row ahead of a metadata fault."""

import json
import math
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyleta import (BoundarySpectrum, InvalidSpectrumError, InvalidTraceError,
                    circle_spectrum,
                    direct_sum, dump_spectrum, eta_invariant, from_records,
                    load_spectrum, spectral, spectrum_from_json_dict,
                    spectrum_to_json_dict)
from cyleta.cli import main

METADATA = ("weyl_c1", "weyl_c2", "trace_bound_c3", "trace_bound_c4",
            "truncated_at")


def _arrays_of(spectrum):
    return spectrum.lams, spectrum.multiplicity, spectrum.traces


def _assert_same(got, want):
    """Equal arrays (dtype and the sign of zeros included), metadata and
    eta result, bit for bit."""
    for a, b in zip(_arrays_of(got), _arrays_of(want)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    for name in METADATA:
        assert getattr(got, name) == getattr(want, name)
    before, after = eta_invariant(want), eta_invariant(got)
    assert (after.value, after.est_error, after.truncation_error) == \
        (before.value, before.est_error, before.truncation_error)


def _record_doc(spectrum, weyl=True):
    """The record-form document of a spectrum, written the way files were
    before format 2."""
    doc = {"data": [{"lambda": lam, "multiplicity": mult, "trace": [re, im]}
                    for lam, mult, re, im in zip(
                        spectrum.lams.tolist(), spectrum.multiplicity.tolist(),
                        spectrum.traces.real.tolist(),
                        spectrum.traces.imag.tolist())],
           "truncated_at": spectrum.truncated_at}
    if weyl:
        doc["weyl"] = {"c1": spectrum.weyl_c1, "c2": spectrum.weyl_c2,
                       "c3": spectrum.trace_bound_c3,
                       "c4": spectrum.trace_bound_c4}
    return doc


def _columns(n=8):
    return {"format": 2,
            "data": {"lambda": [float(k + 1) for k in range(n)],
                     "multiplicity": [1] * n, "trace_re": [1.0] * n,
                     "trace_im": [0.0] * n}}


SPECTRA = {
    "circle": lambda: circle_spectrum(0.25, 0.0, 300),
    "rotated": lambda: circle_spectrum(0.37, 2.3, 200),
    "merged": lambda: direct_sum(
        circle_spectrum(0.25, 0.7, 40),
        from_records([(0.4, 1, 1.0, 0.0), (-0.9, 2, 0.7, 1.1),
                      (1.6, 3, -1.2, 0.3), (-2.5, 1, 0.5, -0.4)])),
}


# ---------------------------------------------------------------------------
# the written form


def test_dump_writes_four_flat_columns(tmp_path):
    spectrum = circle_spectrum(0.3, 0.2, 1)
    path = tmp_path / "spectrum.json"
    dump_spectrum(spectrum, path)
    doc = json.loads(path.read_text())
    assert doc == spectrum_to_json_dict(spectrum)
    assert doc["format"] == 2
    assert doc["data"] == {
        "lambda": spectrum.lams.tolist(),
        "multiplicity": [1, 1, 1],
        "trace_re": spectrum.traces.real.tolist(),
        "trace_im": spectrum.traces.imag.tolist()}
    assert set(doc) == {"format", "data", "weyl", "truncated_at"}


def test_a_40001_mode_circle_fits_in_one_megabyte(tmp_path):
    path = tmp_path / "circle.json"
    dump_spectrum(circle_spectrum(0.25, 0.0, 20000), path)
    assert path.stat().st_size <= 1_000_000


def _assert_written_as_its_document(spectrum, path):
    dump_spectrum(spectrum, path)
    assert path.read_text() == json.dumps(spectrum_to_json_dict(spectrum),
                                          sort_keys=True) + "\n"


# Each trace part column draws its entries from one of these: the signed
# zeros, a few exact values, or any part of modulus at most 1.
PARTS = (st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, -1.0, 0.5]),
         st.floats(-1.0, 1.0))


@st.composite
def written_spectra(draw):
    """1 to 40 modes, each column drawn whole or as one repeated entry, and
    built along one of the constructor paths: from_records rows, a
    caller's arrays, record-form and format-2 JSON, a direct sum, or a
    circle. A row whose trace lies outside the unit disc takes a
    multiplicity of at least 2."""
    how = draw(st.sampled_from(["records", "arrays", "record-form JSON",
                                "format-2 JSON", "direct_sum", "circle"]))
    if how == "circle":
        return circle_spectrum(draw(st.floats(0.01, 0.99)),
                               draw(st.sampled_from((0.0, 0.7, math.pi))),
                               draw(st.integers(1, 60)))
    n = draw(st.integers(1, 40))

    def column(*pools):
        entries = draw(st.sampled_from(pools))
        if draw(st.booleans()):
            return [draw(entries)] * n
        return draw(st.lists(entries, min_size=n, max_size=n))

    lams = column(st.floats(0.01, 1e6) | st.floats(-1e6, -0.01))
    mult = column(st.sampled_from([1, 2**62]), st.integers(1, 2**62))
    rows = [(lam, m if abs(complex(re, im)) <= 1.0 else max(m, 2), re, im)
            for lam, m, re, im in zip(lams, mult, column(*PARTS), column(*PARTS))]
    if how == "records":
        return from_records(rows)
    if how == "arrays":
        fitted = from_records(rows)
        return BoundarySpectrum(*(np.array(a) for a in _arrays_of(fitted)),
                                **{name: getattr(fitted, name) for name in METADATA})
    if how == "record-form JSON":
        return spectrum_from_json_dict({"data": [
            {"lambda": lam, "multiplicity": m, "trace": [re, im]}
            for lam, m, re, im in rows]})
    if how == "format-2 JSON":
        names = ("lambda", "multiplicity", "trace_re", "trace_im")
        return spectrum_from_json_dict(
            {"format": 2, "data": dict(zip(names, map(list, zip(*rows))))})
    if n == 1:
        return from_records(rows)
    return _merged(from_records(rows[::2]), from_records(rows[1::2]))


def _merged(a, b):
    """direct_sum(a, b), or None where it refuses a coalesced multiplicity
    past int64, which it must do exactly where one is. Each merged mode's
    exact multiplicity, a Python int, sums the run of signed-sorted input
    multiplicities whose length the same merge of unit multiplicities
    gives, keyed by the run's first eigenvalue."""
    units = direct_sum(*(from_records([(lam, 1, 0.0, 0.0)
                                       for lam in s.lams.tolist()])
                         for s in (a, b)))
    mults = iter(m for _, m in sorted(
        pair for s in (a, b)
        for pair in zip(s.lams.tolist(), s.multiplicity.tolist())))
    exact = {lam: sum(islice(mults, size))
             for lam, size in sorted(zip(units.lams.tolist(),
                                         units.multiplicity.tolist()))}
    if max(exact.values()) > 2**63 - 1:
        with pytest.raises(InvalidSpectrumError,
                           match="coalesced multiplicity [0-9]+ exceeds the "
                                 "int64 range"):
            direct_sum(a, b)
        return None
    merged = direct_sum(a, b)
    assert dict(zip(merged.lams.tolist(),
                    merged.multiplicity.tolist())) == exact
    return merged


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(written_spectra())
def test_dump_writes_the_text_of_the_spectrum_document(tmp_path_factory, spectrum):
    if spectrum is None:  # a direct sum refused as past int64, as it must be
        return
    _assert_written_as_its_document(
        spectrum, tmp_path_factory.mktemp("written") / "spectrum.json")


WRITTEN = {
    "one mode": lambda: from_records([(-0.5, 3, 1.0, -0.0)]),
    "constant -0.0": lambda: from_records(
        [(k + 0.5, 1, -0.0, -0.0) for k in range(50)]),
    "0.0 and -0.0": lambda: from_records(
        [(k + 0.5, 1, 0.25, -0.0 if k % 3 else 0.0) for k in range(50)]),
    "1+0j and 1-0j": lambda: from_records(
        [(k + 0.5, 1, 1.0, -0.0 if k == 40 else 0.0) for k in range(50)]),
    "multiplicity 2**62": lambda: from_records(
        [(k + 0.5, 2**62, 1.0, 0.0) for k in range(50)]),
    "multiplicities up to 2**62": lambda: from_records(
        [(k + 0.5, 2**k, 1.0, 0.0) for k in range(63)]),
    "identity circle": lambda: circle_spectrum(0.25, 0.0, 20000),
    "real traces": lambda: from_records(
        [(k + 0.5, 1, math.cos(k), 0.0) for k in range(-50, 50)]),
    **SPECTRA,
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_dump_writes_the_document_text_of_each_case(tmp_path, name):
    _assert_written_as_its_document(WRITTEN[name](), tmp_path / "spectrum.json")


def test_a_constant_column_is_formatted_once(tmp_path, monkeypatch):
    # The lambdas vary; the multiplicities, and the real and the imaginary
    # parts of the traces, are one entry each.
    lengths = []
    dumps = json.dumps

    def counted(obj, *args, **kwargs):
        if isinstance(obj, list):
            lengths.append(len(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    spectrum = circle_spectrum(0.25, 0.0, 20000)
    dump_spectrum(spectrum, tmp_path / "circle.json")
    monkeypatch.undo()
    assert sorted(lengths) == [1, 1, 1, len(spectrum)]
    _assert_written_as_its_document(spectrum, tmp_path / "circle.json")


# ---------------------------------------------------------------------------
# old files load exactly


@pytest.mark.parametrize("name", sorted(SPECTRA))
@pytest.mark.parametrize("weyl", [True, False])
def test_record_document_and_its_redump_load_alike(name, weyl):
    doc = _record_doc(SPECTRA[name](), weyl)
    old = spectrum_from_json_dict(json.loads(json.dumps(doc)))
    redump = json.loads(json.dumps(spectrum_to_json_dict(old)))
    assert redump["format"] == 2
    _assert_same(spectrum_from_json_dict(redump), old)


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_record_file_and_its_redump_file_load_alike(tmp_path, name):
    spectrum = SPECTRA[name]()
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(_record_doc(spectrum), indent=2,
                                   sort_keys=True) + "\n")
    old = load_spectrum(old_path)
    _assert_same(old, spectrum)
    dump_spectrum(old, new_path)
    _assert_same(load_spectrum(new_path), old)


def test_negative_zero_imaginary_parts_keep_their_sign(tmp_path):
    # the real-trace circle, with -0.0 as every odd mode's imaginary part
    spectrum = from_records([(n + 0.25, 1, 1.0, -0.0 if n % 2 else 0.0)
                             for n in range(-50, 51)])
    signs = np.signbit(spectrum.traces.imag)
    assert signs.any() and not signs.all()
    path = tmp_path / "circle.json"
    dump_spectrum(spectrum, path)
    back = load_spectrum(path)
    assert np.array_equal(np.signbit(back.traces.imag), signs)
    _assert_same(back, spectrum)


# ---------------------------------------------------------------------------
# load_spectrum reads a text laid out as dump_spectrum writes it a column at
# a time, and any other text whole: both routes give one result or one error


def _read_whole(path):
    """The spectrum, or the error, of the text of path parsed whole: the
    one route of load_spectrum for a text that dump_spectrum did not lay
    out."""
    text = path.read_text()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidSpectrumError(f"{path}: not valid JSON ({exc})") from None
    return spectrum_from_json_dict(doc)


def _assert_same_strides(got, want):
    _assert_same(got, want)
    for a, b in zip(_arrays_of(got), _arrays_of(want)):
        assert a.strides == b.strides


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(written_spectra())
def test_a_dumped_file_reads_as_its_text_parsed_whole(tmp_path_factory, spectrum):
    if spectrum is None:  # a direct sum refused as past int64, as it must be
        return
    path = tmp_path_factory.mktemp("reload") / "spectrum.json"
    dump_spectrum(spectrum, path)
    assert spectral._dumped(path.read_text()) is not None
    _assert_same_strides(load_spectrum(path), _read_whole(path))


def _near_dump(edit):
    """The text dump_spectrum writes for circle_spectrum(0.25, 0.0, 3), whose
    multiplicity and trace columns are constant, with edit applied."""
    def text(tmp_path):
        dump_spectrum(circle_spectrum(0.25, 0.0, 3), tmp_path / "written.json")
        return edit((tmp_path / "written.json").read_text())
    return text


def _in_data(name, old, new):
    """An edit of the column name alone."""
    def edit(text):
        head = text.index(f'"{name}": [')
        tail = text.index("]", head)
        return text[:head] + text[head:tail].replace(old, new) + text[tail:]
    return edit


NEAR_DUMP = {
    "as written": lambda text: text,
    "no space after a comma": _in_data("trace_re", ", ", ","),
    "a space before a comma": _in_data("multiplicity", ", ", " , "),
    "indented": lambda text: json.dumps(json.loads(text), indent=1),
    "format first": lambda text: "{" + text[text.index('"format"'):
                                            text.index('"truncated_at"')]
    + text[1:text.index(', "format"')] + ", " + text[text.index('"truncated'):],
    "1.00 repeated": _in_data("trace_re", "1.0", "1.00"),
    "an int repeated": _in_data("trace_re", "1.0", "1"),
    "NaN repeated": _in_data("trace_im", "0.0", "NaN"),
    "Infinity once": lambda text: text.replace("-0.75", "Infinity", 1),
    "-Infinity repeated": _in_data("trace_re", "1.0", "-Infinity"),
    "a nested list": lambda text: text.replace("1.25", "[1.25]", 1),
    "a list nested past the recursion limit": lambda text: text.replace(
        "1.25", "[" * 100_000 + "]" * 100_000, 1),
    "a string entry": lambda text: text.replace("1.25", '"1.25"', 1),
    "a string as every entry": _in_data("trace_im", "0.0", '"0.0"'),
    "true repeated": _in_data("multiplicity", "1", "true"),
    "a float multiplicity repeated": _in_data("multiplicity", "1", "1.0"),
    "a zero multiplicity repeated": _in_data("multiplicity", "1", "0"),
    "a short constant column": _in_data("trace_im", "0.0, ", ""),
    "a short column": _in_data("lambda", "-0.75, ", ""),
    "an empty column": lambda text: re.sub(r'"trace_im": \[[^]]*\]',
                                           '"trace_im": []', text),
    "a later data key": lambda text: text.replace(
        '"format"', '"data": {"lambda": [2.0], "multiplicity": [1], '
                    '"trace_re": [1.0], "trace_im": [0.0]}, "format"'),
    "a later empty data key": lambda text: text.replace('"format"',
                                                        '"data": [], "format"'),
    "format 2.0": lambda text: text.replace('"format": 2', '"format": 2.0'),
    "format true": lambda text: text.replace('"format": 2', '"format": true'),
    "no format": lambda text: text.replace('"format": 2, ', ""),
    "a later format": lambda text: text.replace("}\n", ', "format": 3}\n'),
    "a huge multiplicity": _in_data("multiplicity", "1", str(2**63)),
    "an int past the double range": lambda text: text.replace(
        "1.25", str(10**400), 1),
    "an int past the digit limit": lambda text: text.replace(
        "1.25", "1" * 5000, 1),
    "a zero eigenvalue": lambda text: text.replace("1.25", "0.0", 1),
    "an eigenvalue twice": lambda text: text.replace("-0.75", "-1.75", 1),
    "no weyl": lambda text: text[:text.index(', "weyl"')] + "}\n",
    "weyl missing c4": lambda text: text.replace(', "c4": 0.0', ""),
    "a trailing comma": lambda text: text.replace("}}\n", "},}\n"),
    "trailing data": lambda text: text + "{}",
    "a truncated file": lambda text: text[:len(text) // 2],
    "an empty file": lambda text: "",
}


@pytest.mark.parametrize("name", NEAR_DUMP)
def test_a_near_dump_text_reads_as_it_parses_whole(tmp_path, name):
    path = tmp_path / "spectrum.json"
    path.write_text(_near_dump(NEAR_DUMP[name])(tmp_path))
    try:
        want = _read_whole(path)
    except (InvalidSpectrumError, RecursionError) as exc:
        with pytest.raises(type(exc)) as err:
            load_spectrum(path)
        assert str(err.value) == str(exc)
    else:
        _assert_same_strides(load_spectrum(path), want)


def test_the_identity_circle_reads_its_constant_columns_from_one_entry(tmp_path):
    spectrum = circle_spectrum(0.25, 0.0, 20000)
    path = tmp_path / "circle.json"
    dump_spectrum(spectrum, path)
    *cols, meta = spectral._dumped(path.read_text())
    assert [col.strides for col in cols] == [(8,), (0,), (0,), (0,)]
    assert meta == {"format": 2, **spectral._metadata(spectrum)}
    _assert_same_strides(load_spectrum(path), spectrum)


def test_cli_reads_both_forms_to_one_result(capsys, tmp_path):
    spectrum = circle_spectrum(0.25, 0.7, 200)
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(_record_doc(spectrum)) + "\n")
    dump_spectrum(spectrum, new_path)
    results = []
    for path in (old_path, new_path):
        assert main(["eta", "--spectrum", str(path)]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# malformed columns name the column and the first bad index


def _without(name):
    doc = _columns()
    del doc["data"][name]
    return doc


def _short(name, length):
    doc = _columns()
    del doc["data"][name][length:]
    return doc


def _both_bad(name, first, second, value):
    doc = _columns()
    doc["data"][name][first] = doc["data"][name][second] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (_without("multiplicity"), "data.multiplicity[0]: no entry"),
    (_short("trace_im", 5), "data.trace_im[5]: no entry"),
    (_short("lambda", 6), "data.lambda[6]: no entry"),
    (_short("trace_re", 0), "data.trace_re[0]: no entry"),
    ({"format": 2, "data": {"lambda": [], "multiplicity": [],
                            "trace_re": [], "trace_im": []}},
     "data.lambda[0]: no entry"),
    (_both_bad("lambda", 2, 5, True), "data.lambda[2]: must be a number, got True"),
    (_both_bad("lambda", 3, 6, "4.0"),
     "data.lambda[3]: must be a number, got '4.0'"),
    (_both_bad("multiplicity", 3, 4, 1.0),
     "data.multiplicity[3]: must be a 64-bit integer, got 1.0"),
    (_both_bad("multiplicity", 1, 7, 2**70),
     f"data.multiplicity[1]: must be a 64-bit integer, got {2**70}"),
    (_both_bad("trace_re", 4, 5, None),
     "data.trace_re[4]: must be a number, got None"),
    (_both_bad("trace_im", 0, 2, [0.0]),
     "data.trace_im[0]: must be a number, got [0.0]"),
], ids=["missing", "short", "unequal", "empty", "all-empty", "bool",
        "string", "float-multiplicity", "huge-multiplicity", "null-trace",
        "list-trace"])
def test_malformed_columns_are_named(doc, message):
    with pytest.raises(InvalidSpectrumError) as err:
        spectrum_from_json_dict(doc)
    assert str(err.value).startswith(message)


def test_a_longer_column_flags_the_first_short_one():
    doc = _columns()
    doc["data"]["trace_re"].append(1.0)
    with pytest.raises(InvalidSpectrumError,
                       match=r"^data\.lambda\[8\]: no entry; the four columns "
                             r"must be non-empty arrays of one length"):
        spectrum_from_json_dict(doc)


@pytest.mark.parametrize("data", [None, "columns", [{"lambda": 1.0}],
                                  {"lambda": 1.0, "multiplicity": 1,
                                   "trace_re": 1.0, "trace_im": 0.0}])
def test_data_that_is_not_an_object_of_arrays_is_refused(data):
    with pytest.raises(InvalidSpectrumError, match=r"^data\.lambda\[0\]"):
        spectrum_from_json_dict({"format": 2, "data": data})


def test_format_2_names_a_zero_eigenvalue_at_its_row():
    doc = _columns()
    doc["data"]["lambda"][3] = 0.0
    doc["data"]["lambda"][6] = 0.0
    with pytest.raises(InvalidSpectrumError,
                       match=r"^data\[3\]: zero eigenvalue"):
        spectrum_from_json_dict(doc)


def test_format_2_names_an_overlarge_trace_at_its_row():
    doc = _columns()
    doc["data"]["trace_re"][5], doc["data"]["trace_im"][5] = 0.0, 1.5
    doc["data"]["trace_re"][7] = 3.0
    with pytest.raises(InvalidTraceError,
                       match=r"^data\[5\]: \|trace\| = 1\.5 exceeds "
                             r"multiplicity 1"):
        spectrum_from_json_dict(doc)


def test_a_malformed_entry_is_named_before_an_invalid_row():
    doc = _columns()
    doc["data"]["lambda"][1] = 0.0
    doc["data"]["trace_im"][6] = "0"
    with pytest.raises(InvalidSpectrumError, match=r"^data\.trace_im\[6\]"):
        spectrum_from_json_dict(doc)


@pytest.mark.parametrize("value", [3, "2", True, 2.0, 1, None])
def test_other_formats_are_refused(value):
    doc = _columns()
    doc["format"] = value
    with pytest.raises(InvalidSpectrumError,
                       match=f'^"format" must be 2 or absent, got {value!r}$'):
        spectrum_from_json_dict(doc)


def test_format_2_reads_weyl_and_cutoff_as_the_record_form_does():
    doc = _columns(3)
    fitted = spectrum_from_json_dict(doc)
    assert fitted.truncated_at == 3.0
    assert fitted.weyl_c1 > 0
    doc.update(weyl={"c1": 0.5}, truncated_at=3.5)
    with pytest.raises(InvalidSpectrumError, match="weyl"):
        spectrum_from_json_dict(doc)


# An int past the largest double: 10**400, or one of more digits than
# int() reads from a string (4300 by default).
HUGE = 10**400
DIGITS = {"10**400": "1" + "0" * 400, "5000 digits": "1" * 5000}


@pytest.mark.parametrize("name", ["lambda", "trace_re", "trace_im"])
def test_format_2_names_an_int_past_the_double_range(name):
    doc = _columns()
    doc["data"][name][3], doc["data"][name][6] = -HUGE, HUGE
    with pytest.raises(InvalidSpectrumError,
                       match=rf"^data\.{name}\[3\]: must be within the "
                             r"double range, got -1000"):
        spectrum_from_json_dict(doc)


@pytest.mark.parametrize("key, part", [("lambda", None), ("trace", 0),
                                       ("trace", 1)])
def test_the_record_form_names_an_int_past_the_double_range(key, part):
    doc = _record_doc(circle_spectrum(0.25, 0.7, 3))
    for i in (2, 5):
        if part is None:
            doc["data"][i][key] = HUGE
        else:
            doc["data"][i][key][part] = HUGE
    name = key if part is None else f"{key}[{part}]"
    with pytest.raises(InvalidSpectrumError,
                       match=rf"^data\[2\]\.{re.escape(name)}: must be within "
                             r"the double range, got 1000"):
        spectrum_from_json_dict(doc)


@pytest.mark.parametrize("column", [0, 2, 3],
                         ids=["lambda", "trace_re", "trace_im"])
def test_from_records_names_an_int_past_the_double_range(column):
    rows = [[float(k + 1), 1, 1.0, 0.0] for k in range(8)]
    rows[4][column] = rows[6][column] = HUGE
    name = ("lambda", "multiplicity", "trace_re", "trace_im")[column]
    with pytest.raises(InvalidSpectrumError,
                       match=rf"^record 4 {name}: must be within the double "
                             r"range, got 1000"):
        from_records(map(tuple, rows))


def test_the_largest_double_as_an_int_still_reads():
    # 2**1024 - 2**970 is the midpoint above the largest double, and rounds
    # up to an overflow; every int below it rounds to a finite double.
    # from_records reads the largest double, then refuses it as its cutoff.
    largest = int(np.finfo(float).max)
    with pytest.raises(InvalidSpectrumError,
                       match=r"^truncation cutoff must be positive, with a "
                             r"floor 40/cutoff\*\*2 above 0, got "
                             r"1\.7976931348623157e\+308$"):
        from_records([(largest, 1, 1.0, 0.0)])
    doc = _columns(1)
    doc["truncated_at"] = 1.0
    doc["data"]["lambda"][0] = 2**1024 - 2**970 - 1
    assert spectrum_from_json_dict(doc).lams[0] == np.finfo(float).max
    doc["data"]["lambda"][0] = 2**1024 - 2**970
    with pytest.raises(InvalidSpectrumError, match=r"^data\.lambda\[0\]"):
        spectrum_from_json_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("truncated_at", HUGE), ("truncated_at", "far"),
    ("weyl", {"c1": HUGE, "c2": 1, "c3": 1, "c4": 0})])
def test_metadata_past_the_double_range_is_refused(key, value):
    doc = _columns()
    doc[key] = value
    with pytest.raises(InvalidSpectrumError,
                       match=r'^"truncated_at" must be a number and "weyl"'):
        spectrum_from_json_dict(doc)


def _file_with(tmp_path, form, digits):
    """A spectrum file of the given form whose second lambda is the int
    written by the given digits."""
    if form == "records":
        doc = _record_doc(circle_spectrum(0.25, 0.7, 3))
        doc["data"][1]["lambda"] = "HUGE"
    else:
        doc = _columns()
        doc["data"]["lambda"][1] = "HUGE"
    path = tmp_path / f"{form}.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', digits))
    return path


@pytest.mark.parametrize("form", ["records", "columns"])
def test_an_int_past_the_digit_limit_is_refused(tmp_path, form):
    path = _file_with(tmp_path, form, DIGITS["5000 digits"])
    with pytest.raises(InvalidSpectrumError,
                       match=rf"^{re.escape(str(path))}: not valid JSON "
                             r"\(Exceeds the limit"):
        load_spectrum(path)


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(InvalidSpectrumError, match="not valid JSON"):
        load_spectrum(path)


@pytest.mark.parametrize("digits", DIGITS.values(), ids=DIGITS)
@pytest.mark.parametrize("form", ["records", "columns"])
def test_cli_reports_a_huge_int_as_an_input_error(capsys, tmp_path, form,
                                                  digits):
    path = _file_with(tmp_path, form, digits)
    assert main(["eta", "--spectrum", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] is None
    assert len(doc["errors"]) == 1
    assert doc["errors"][0].startswith(f"spectrum file {path}: ")


# ---------------------------------------------------------------------------
# one reader: from_records rows, the record form and format 2 name a defect
# at one row with one tail, each by its own name for the entry

ROW = {"rows": "record 3", "records": "data[3]", "columns": "data[3]"}
ENTRY = {"rows": ("record 3 lambda", "record 3 multiplicity",
                  "record 3 trace_re"),
         "records": ("data[3].lambda", "data[3].multiplicity",
                     "data[3].trace[0]"),
         "columns": ("data.lambda[3]", "data.multiplicity[3]",
                     "data.trace_re[3]")}
SHAPE = {"rows": "record 3: must be (lambda, multiplicity, trace_re, "
                 "trace_im), got (4.0, 1, 1.0)",
         "records": "data[3]: missing key 'trace'",
         "columns": "data.trace_im[3]: no entry; the four columns must be "
                    "non-empty arrays of one length"}
# defect: (column, value, tail); a zero eigenvalue is named by its row
DEFECTS = {"str-lambda": (0, "4.0", "must be a number, got '4.0'"),
           "bool-multiplicity": (1, True, "must be a 64-bit integer, got True"),
           "huge-trace": (2, HUGE, f"must be within the double range, got {HUGE}"),
           "zero-eigenvalue": (0, 0.0, "zero eigenvalue: the data must "
                                       "describe an invertible operator")}


def _read_as(form, rows, short):
    """rows read through the given form, with row 3 cut short if short;
    "iterators" passes from_records each row as a one-shot iterator."""
    if form in ("rows", "iterators"):
        if short:
            rows[3] = rows[3][:3]
        one_shot = form == "iterators"
        return from_records(iter(row) if one_shot else tuple(row) for row in rows)
    if form == "records":
        doc = {"data": [{"lambda": lam, "multiplicity": mult, "trace": [re, im]}
                        for lam, mult, re, im in rows]}
        if short:
            del doc["data"][3]["trace"]
    else:
        names = ("lambda", "multiplicity", "trace_re", "trace_im")
        doc = {"format": 2, "data": dict(zip(names, map(list, zip(*rows))))}
        if short:
            del doc["data"]["trace_im"][3:]
    return spectrum_from_json_dict(doc)


@pytest.mark.parametrize("defect", [*DEFECTS, "shape"])
@pytest.mark.parametrize("form", ["rows", "records", "columns", "iterators"])
def test_every_form_names_a_defect_at_its_row_with_one_tail(form, defect):
    rows = [[float(k + 1), 1, 1.0, 0.0] for k in range(8)]
    short = defect == "shape"
    names = "rows" if form == "iterators" else form
    if short:
        want = SHAPE[names]
    else:
        column, value, tail = DEFECTS[defect]
        rows[3][column] = rows[6][column] = value
        name = ROW[names] if defect == "zero-eigenvalue" else ENTRY[names][column]
        want = f"{name}: {tail}"
    with pytest.raises(InvalidSpectrumError) as err:
        _read_as(form, rows, short)
    assert str(err.value) == want


def test_a_spectrum_is_rebuilt_from_its_own_arrays_row_by_row():
    # The rows hold numpy scalars: an int64 multiplicity is an integer, but
    # a numpy bool, a float and an unsigned value past int64 are refused as
    # their Python counterparts are.
    spectrum = direct_sum(circle_spectrum(0.3, 0.7, 50),
                          from_records([(0.45, 2, 1.0, 0.5)]))
    rebuilt = from_records(zip(spectrum.lams, spectrum.multiplicity,
                               spectrum.traces.real, spectrum.traces.imag))
    for got, want in zip(_arrays_of(rebuilt), _arrays_of(spectrum)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for value in (np.bool_(True), np.float64(1.0), np.uint64(2**63)):
        want = f"record 0 multiplicity: must be a 64-bit integer, got {value!r}"
        with pytest.raises(InvalidSpectrumError, match=f"^{re.escape(want)}$"):
            from_records([(1.0, value, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# a cutoff past about 1.3e154 leaves no floor: 40/cutoff**2 is 0


def _floorless(cutoff):
    return ("^" + re.escape("truncation cutoff must be positive, with a floor "
                            f"40/cutoff**2 above 0, got {cutoff!r}") + "$")


@pytest.mark.parametrize("cutoff", [2e154, 1e200, math.inf])
def test_a_cutoff_with_no_floor_is_refused(cutoff):
    spectrum = circle_spectrum(0.25, 0.7, 3)
    with pytest.raises(InvalidSpectrumError, match=_floorless(cutoff)):
        BoundarySpectrum(spectrum.lams, spectrum.multiplicity, spectrum.traces,
                         weyl_c1=spectrum.weyl_c1, weyl_c2=spectrum.weyl_c2,
                         trace_bound_c3=1.0, trace_bound_c4=0.0,
                         truncated_at=cutoff)
    for doc in (spectrum_to_json_dict(spectrum), _record_doc(spectrum)):
        doc["truncated_at"] = cutoff
        with pytest.raises(InvalidSpectrumError, match=_floorless(cutoff)):
            spectrum_from_json_dict(doc)


def test_a_cutoff_just_below_the_limit_still_reads():
    doc = spectrum_to_json_dict(circle_spectrum(0.25, 0.7, 3))
    doc["truncated_at"] = 1e154
    assert spectrum_from_json_dict(doc).truncated_at == 1e154


@pytest.mark.parametrize("form", ["records", "columns"])
def test_cli_refuses_a_file_cutoff_with_no_floor(capsys, tmp_path, form):
    spectrum = circle_spectrum(0.25, 0.7, 3)
    doc = _record_doc(spectrum) if form == "records" \
        else spectrum_to_json_dict(spectrum)
    path = tmp_path / f"{form}.json"
    for text, cutoff in (("1e200", 1e200), ("1e400", math.inf)):
        doc["truncated_at"] = "CUTOFF"
        path.write_text(json.dumps(doc).replace('"CUTOFF"', text))
        assert main(["eta", "--spectrum", str(path)]) == 1
        errors = json.loads(capsys.readouterr().out)["errors"]
        assert errors == [f"spectrum file {path}: truncation cutoff must be "
                          f"positive, with a floor 40/cutoff**2 above 0, got "
                          f"{cutoff!r}"]


# ---------------------------------------------------------------------------
# every input is built by one route, which checks each mode once, by rank;
# only a refused build checks the rows, so the lowest invalid row goes first

GROWTH = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 0.0}
# case: (row edits {(row, column): value}, metadata, reversed rows, error)
PRECEDENCE = {
    "rank order differs from row order": (
        {(2, 2): 3.0, (5, 0): 0.0}, {}, False,
        (InvalidTraceError, "{2}: |trace| = 3 exceeds multiplicity 1; no "
                            "unitary restriction produces that")),
    "zero eigenvalue and a string weyl.c1": (
        {(3, 0): 0.0}, {"weyl": {**GROWTH, "c1": "1.0"}}, False,
        (InvalidSpectrumError, "{3}: zero eigenvalue: the data must describe "
                               "an invertible operator")),
    "zero eigenvalue and a string truncated_at": (
        {(3, 0): 0.0}, {"truncated_at": "9.0"}, False,
        (InvalidSpectrumError, "{3}: zero eigenvalue: the data must describe "
                               "an invertible operator")),
    "c1 = -1": (
        {}, {"weyl": {**GROWTH, "c1": -1.0}}, False,
        (InvalidSpectrumError, "growth constants c1, c2 must be positive")),
    "unsorted rows and a violated growth bound": (
        {}, {"weyl": {**GROWTH, "c1": 2.0}}, True,
        (InvalidSpectrumError, "growth bound violated at rank 1: "
                               "|1.0| < 2.0 * 1**1.0")),
}
LOADS = ("rows", "records", "columns", "records file", "columns file",
         "dumped file")


def _precedence_input(form, case, tmp_path):
    """The 8 rows of the case, edited, with its metadata, read as form: a
    file is the plain json.dumps text of the document, or for "dumped file"
    the text laid out as dump_spectrum writes it."""
    edits, meta, backwards, _ = PRECEDENCE[case]
    rows = [[float(k + 1), 1, 1.0, 0.0] for k in range(8)]
    for (i, column), value in edits.items():
        rows[i][column] = value
    rows = rows[::-1] if backwards else rows
    if form == "rows":
        return lambda: from_records(map(tuple, rows))
    if form.startswith("records"):
        doc = {"data": [{"lambda": lam, "multiplicity": mult, "trace": [re, im]}
                        for lam, mult, re, im in rows], **meta}
    else:
        names = ("lambda", "multiplicity", "trace_re", "trace_im")
        doc = {"format": 2, "data": dict(zip(names, map(list, zip(*rows)))),
               **meta}
    if not form.endswith("file"):
        return lambda: spectrum_from_json_dict(doc)
    text = json.dumps(doc, sort_keys=form == "dumped file") + "\n"
    assert (spectral._dumped(text) is None) == (form != "dumped file")
    path = tmp_path / "spectrum.json"
    path.write_text(text)
    return lambda: load_spectrum(path)


# from_records takes no metadata, so it reads only the cases of bad rows
@pytest.mark.parametrize("case, form", [
    (case, form) for case, (edits, *_) in PRECEDENCE.items() for form in LOADS
    if edits or form != "rows"])
def test_each_input_names_the_first_defect_by_one_precedence(tmp_path, case, form):
    error, message = PRECEDENCE[case][3]
    read = _precedence_input(form, case, tmp_path)
    row = "record {}" if form == "rows" else "data[{}]"
    with pytest.raises(error) as err:
        read()
    assert type(err.value) is error
    assert str(err.value) == message.format(*(row.format(i) for i in range(8)))


def _counting(monkeypatch):
    """Patch spectral._check_records to count its calls and spectral._stored
    to record the strides of what it is given."""
    calls, strides = [], []
    check, stored = spectral._check_records, spectral._stored
    monkeypatch.setattr(spectral, "_check_records",
                        lambda *args: (calls.append(args), check(*args))[1])
    monkeypatch.setattr(spectral, "_stored",
                        lambda array: (strides.append(array.strides),
                                       stored(array))[1])
    return calls, strides


def test_a_dumped_identity_circle_is_checked_once_and_not_gathered(
        tmp_path, monkeypatch):
    spectrum = circle_spectrum(0.25, 0.0, 20000)
    path = tmp_path / "circle.json"
    dump_spectrum(spectrum, path)
    calls, strides = _counting(monkeypatch)
    back = load_spectrum(path)
    assert len(calls) == 1
    assert strides == [(8,), (0,), (0,)]
    monkeypatch.undo()
    _assert_same_strides(back, spectrum)


def test_every_other_input_is_checked_once(tmp_path, monkeypatch):
    spectrum = circle_spectrum(0.25, 0.7, 40)
    path = tmp_path / "records.json"
    path.write_text(json.dumps(_record_doc(spectrum)))
    rows = list(zip(spectrum.lams.tolist(), spectrum.multiplicity.tolist(),
                    spectrum.traces.real.tolist(), spectrum.traces.imag.tolist()))
    calls, _ = _counting(monkeypatch)
    for read in (lambda: load_spectrum(path),
                 lambda: spectrum_from_json_dict(spectrum_to_json_dict(spectrum)),
                 lambda: from_records(rows)):
        calls.clear()
        read()
        assert len(calls) == 1
