"""Spectral data model: validation, construction, metadata, JSON, tails."""

import json
import math
import re

import numpy as np
import pytest

from cyleta import (
    BoundarySpectrum,
    DomainError,
    InvalidSpectrumError,
    InvalidTraceError,
    circle_spectrum,
    direct_sum,
    dump_spectrum,
    eta_invariant,
    from_records,
    load_spectrum,
    spectrum_from_json_dict,
    spectrum_to_json_dict,
    tail_bound,
)


# ---------------------------------------------------------------------------
# single records


def _rows(spectrum):
    """The modes as (lambda, multiplicity, trace) tuples of Python numbers."""
    return list(zip(spectrum.lams.tolist(), spectrum.multiplicity.tolist(),
                    spectrum.traces.tolist()))


def test_datum_coerces_types():
    [(lam, mult, trace)] = _rows(from_records([(1, 2, 1.5, 0)]))
    assert (lam, mult, trace) == (1.0, 2, 1.5 + 0j)
    assert isinstance(lam, float) and isinstance(trace, complex)


@pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
def test_datum_rejects_bad_eigenvalue(lam):
    with pytest.raises(InvalidSpectrumError):
        from_records([(lam, 1, 1.0, 0.0)])


@pytest.mark.parametrize("mult", [0, -1, 1.5, "2"])
def test_datum_rejects_bad_multiplicity(mult):
    with pytest.raises(InvalidSpectrumError):
        from_records([(1.0, mult, 1.0, 0.0)])


def test_datum_rejects_overlarge_trace():
    # a unitary restricted to a 2-dimensional eigenspace cannot trace to 3
    with pytest.raises(InvalidTraceError):
        from_records([(1.0, 2, 3.0, 0.0)])
    with pytest.raises(InvalidTraceError):
        from_records([(1.0, 1, 1.0, 1.0)])


def test_datum_accepts_boundary_trace():
    from_records([(1.0, 2, -2.0, 0.0)])
    from_records([(-0.5, 1, 0.6, 0.8)])


# ---------------------------------------------------------------------------
# assembled spectra


def _single(lam=2.0, trace=1.0):
    return from_records([(lam, 1, trace, 0.0)])


def _built(lams, traces, multiplicity=None, c1=0.5, c2=0.5):
    """A spectrum from arrays, with a flat unit trace bound."""
    if multiplicity is None:
        multiplicity = [1] * len(lams)
    return BoundarySpectrum(lams, multiplicity, traces, weyl_c1=c1,
                            weyl_c2=c2, trace_bound_c3=1.0,
                            trace_bound_c4=0.0,
                            truncated_at=max(abs(x) for x in lams))


def test_spectrum_requires_sorted_records():
    with pytest.raises(InvalidSpectrumError, match="sorted"):
        _built([2.0, 1.0], [1.0, 1.0])


def test_unsorted_pair_in_the_middle_is_named():
    with pytest.raises(InvalidSpectrumError, match="ranks 3 and 4 are not"):
        _built([0.5, 1.0, 3.0, 2.0, 4.0, 3.5], [1.0] * 6)


def test_spectrum_tie_breaks_negative_first():
    s = circle_spectrum(0.5, 0.0, 1)
    assert s.lams.tolist() == [-0.5, 0.5, 1.5]


def test_spectrum_enforces_growth_bound():
    # |lambda_1| = 0.5 sits below c1 * 1**c2 = 1
    with pytest.raises(InvalidSpectrumError, match="growth bound"):
        _built([0.5], [1.0], c1=1.0, c2=1.0)


def test_spectrum_enforces_trace_bound():
    with pytest.raises(InvalidSpectrumError, match="trace bound"):
        _built([1.0], [2.5], multiplicity=[3])


def test_growth_bound_names_the_first_violating_rank():
    # 2.5 < 3 at rank 3 and 3 < 4 at rank 4; rank 3 comes first
    with pytest.raises(InvalidSpectrumError,
                       match=r"growth bound violated at rank 3: \|2\.5\|"):
        _built([1.0, 2.0, 2.5, 3.0], [1.0] * 4, c1=1.0, c2=1.0)


def test_trace_bound_names_the_first_violating_rank():
    with pytest.raises(InvalidSpectrumError,
                       match=r"trace bound violated at rank 3: \|\(2\+0j\)\|"):
        _built([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0],
               multiplicity=[1, 1, 2, 2])


def test_earliest_rank_wins_across_the_two_bounds():
    # the trace bound fails at rank 2, the growth bound only at rank 3
    with pytest.raises(InvalidSpectrumError,
                       match="trace bound violated at rank 2"):
        _built([1.0, 2.0, 2.5], [1.0, 2.0, 1.0], multiplicity=[1, 2, 1],
               c1=1.0, c2=1.0)


def test_invalid_mode_is_named_by_rank():
    with pytest.raises(InvalidSpectrumError,
                       match="rank 3: eigenvalue must be finite, got inf"):
        _built([1.0, 2.0, math.inf], [1.0] * 3)
    with pytest.raises(InvalidTraceError, match="rank 2: trace must be finite"):
        _built([1.0, 2.0], [1.0, complex(0.0, math.nan)])


def test_multiplicity_must_be_an_integer_array():
    with pytest.raises(InvalidSpectrumError, match="integers"):
        _built([1.0], [1.0], multiplicity=[1.5])


def test_spectrum_gap_and_rank():
    s = from_records([(0.5, 2, 2.0, 0.0), (-1.5, 1, 0.5, 0.0)])
    assert s.lams.tolist() == [0.5, -1.5]
    assert s.gap == 0.5
    assert len(s) == 2
    assert s.rank_below(1.0) == 1
    assert s.rank_below(1.5) == 2
    assert s.rank_below(0.1) == 0


def test_from_records_single_mode():
    s = _single()
    assert s.gap == 2.0
    assert s.truncated_at == 2.0
    assert s.traces[0] == 1.0 + 0j


def test_from_records_rejects_malformed_rows():
    with pytest.raises(InvalidSpectrumError):
        from_records([])
    with pytest.raises(InvalidSpectrumError, match="record 1"):
        from_records([(1.0, 1, 1.0, 0.0), (2.0, 1)])
    with pytest.raises(InvalidSpectrumError,
                       match="record 2 multiplicity: must be a 64-bit "
                             "integer, got 1.5"):
        from_records([(1.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0),
                      (3.0, 1.5, 1.0, 0.0)])
    with pytest.raises(InvalidSpectrumError,
                       match="record 1 multiplicity: must be a 64-bit "
                             "integer, got -18446744073709551616"):
        from_records([(1.0, 1, 1.0, 0.0), (2.0, -2**64, 1.0, 0.0)])
    # A lambda or trace part that is not an int or a float is refused by
    # type, as both JSON forms refuse it, before numpy could read a str,
    # a bool or None as a number or as NaN.
    for row, why in [
            (("1.5", 1, 1.0, 0.0), "lambda: must be a number, got '1.5'"),
            ((True, 1, 1.0, 0.0), "lambda: must be a number, got True"),
            (("x", 1, 1.0, 0.0), "lambda: must be a number, got 'x'"),
            ((None, 1, 1.0, 0.0), "lambda: must be a number, got None"),
            ((3.0, 1, None, 0.0), "trace_re: must be a number, got None"),
            ((3.0, 1, 1.0, "0"), "trace_im: must be a number, got '0'"),
            ((3.0, 1, True, 0.0), "trace_re: must be a number, got True")]:
        with pytest.raises(InvalidSpectrumError,
                           match="^" + re.escape(f"record 2 {why}") + "$"):
            from_records([(1.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0), row])
    # ints and floats, numpy's real scalars among them, stay accepted in
    # every column but the multiplicity
    spectrum = from_records([(1, 1, 1, 0), (-2.5, 2, 0.5, -1),
                             (np.int64(3), 1, np.float32(0.5), np.float64(0))])
    assert spectrum.lams.tolist() == [1.0, -2.5, 3.0]
    assert spectrum.traces.tolist() == [1 + 0j, 0.5 - 1j, 0.5 + 0j]


def test_from_records_names_the_first_bad_record():
    # As in format 2, a malformed row comes first, then an entry of the
    # wrong type, then an invalid mode: record 1 holds a zero eigenvalue,
    # record 2 a str lambda and record 3 cannot be read at all.
    rows = [(1.0, 1, 1.0, 0.0), (0.0, 1, 1.0, 0.0), ("2.0", 1, 1.0, 0.0),
            (3.0, 1)]
    with pytest.raises(InvalidSpectrumError,
                       match=r"^record 3: must be \(lambda, multiplicity, "
                             r"trace_re, trace_im\), got \(3\.0, 1\)$"):
        from_records(rows)
    with pytest.raises(InvalidSpectrumError,
                       match="^record 2 lambda: must be a number, got '2.0'$"):
        from_records(rows[:3])
    with pytest.raises(InvalidSpectrumError, match="^record 1: zero eigenvalue"):
        from_records(rows[:2])
    with pytest.raises(InvalidTraceError, match="record 2: .* exceeds"):
        from_records([(1.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0),
                      (3.0, 1, 0.0, 1.5)])


def test_fit_prefers_steepest_consistent_growth():
    s = from_records([(1.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0),
                      (3.0, 1, 1.0, 0.0)])
    assert (s.weyl_c1, s.weyl_c2) == (1.0, 1.0)
    assert (s.trace_bound_c3, s.trace_bound_c4) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# the twisted circle family


def test_circle_quarter_twist_eigenvalues():
    s = circle_spectrum(0.25, 0.0, 2)
    assert s.lams.tolist() == [0.25, -0.75, 1.25, -1.75, 2.25]
    assert (s.traces == 1.0 + 0j).all()
    assert s.truncated_at == pytest.approx(2.75)


def test_circle_rotation_traces():
    s = circle_spectrum(0.25, math.pi, 1)
    # modes n = 0, -1, 1 after sorting; traces e^{-i n pi}
    assert s.lams.tolist() == [0.25, -0.75, 1.25]
    traces = s.traces
    assert traces[0] == pytest.approx(1.0 + 0j)
    assert traces[1] == pytest.approx(-1.0 + 0j)
    assert traces[2] == pytest.approx(-1.0 + 0j)


@pytest.mark.parametrize("twist", [0.0, 1.0, -0.5, 1.5])
def test_circle_rejects_twist_outside_open_interval(twist):
    with pytest.raises(InvalidSpectrumError):
        circle_spectrum(twist, 0.0, 5)


@pytest.mark.parametrize("n_max", [0, -3, 2.0, True])
def test_circle_rejects_bad_n_max(n_max):
    with pytest.raises(DomainError):
        circle_spectrum(0.25, 0.0, n_max)


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_circle_rejects_a_non_finite_rotation_angle(angle):
    # Refused by name before any trace is formed, as n_max is.
    with pytest.raises(DomainError, match="rotation_angle must be finite"):
        circle_spectrum(0.25, angle, 5)


def test_circle_growth_constant_shrinks_near_half_twist():
    # at twist 1/2 the rank-2 eigenvalue -1/2 sits below gap * sqrt(2),
    # so c1 must come from rank 2, not from the gap
    s = circle_spectrum(0.5, 0.0, 10)
    assert s.weyl_c1 == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)
    assert s.gap == 0.5
    # a generic twist keeps c1 equal to the gap
    assert circle_spectrum(0.25, 0.0, 10).weyl_c1 == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_coalesces_equal_eigenvalues():
    s = _single(2.0, 1.0)
    both = direct_sum(s, s)
    assert len(both) == 1
    assert both.multiplicity[0] == 2
    assert both.traces[0] == 2.0 + 0j


def test_direct_sum_merges_distinct_modes():
    a = circle_spectrum(0.25, 0.0, 1)
    b = _single(3.0, 1.0)
    merged = direct_sum(a, b)
    assert len(merged) == 4
    assert merged.truncated_at == pytest.approx(min(a.truncated_at, 3.0))
    assert merged.lams.tolist() == [0.25, -0.75, 1.25, 3.0]


# ---------------------------------------------------------------------------
# truncation bounds


def test_tail_bound_vanishes_for_huge_cutoff():
    s = circle_spectrum(0.25, 0.0, 2000)
    assert tail_bound(s, 1.0).bound < 1e-15


def test_tail_bound_diverges_as_s_min_vanishes():
    s = circle_spectrum(0.25, 0.0, 10)
    assert math.isinf(tail_bound(s, 1e-300).bound)


def test_tail_bound_monotone_in_cutoff():
    b20 = tail_bound(circle_spectrum(0.25, 0.0, 20), 1.0, 0.5).bound
    b40 = tail_bound(circle_spectrum(0.25, 0.0, 40), 1.0, 0.5).bound
    assert b40 <= b20


def test_tail_bound_frozen_value():
    tb = tail_bound(circle_spectrum(0.25, 0.0, 10), 0.1, 0.5)
    assert tb.cutoff == pytest.approx(10.75)
    assert tb.s_min == 0.1
    assert tb.bound == pytest.approx(1275.811, rel=1e-4)


def test_tail_bound_rejects_bad_arguments():
    s = _single()
    with pytest.raises(DomainError):
        tail_bound(s, 0.0)
    with pytest.raises(DomainError):
        tail_bound(s, -1.0)
    with pytest.raises(DomainError):
        tail_bound(s, 1.0, -0.5)


@pytest.mark.parametrize("s_min, a_prime", [
    *((s_min, 0.0) for s_min in (0.0, -1.0, math.nan)),
    *((1e-3, a_prime) for a_prime in (-1.0, math.nan, math.inf)),
])
def test_tail_bound_refuses_each_bad_argument(s_min, a_prime):
    spectrum = circle_spectrum(0.25, 0.0, 200)
    assert math.isfinite(tail_bound(spectrum, 1e-3, 0.0).bound)
    with pytest.raises(DomainError):
        tail_bound(spectrum, s_min, a_prime)


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_round_trip_preserves_data_and_metadata():
    s = circle_spectrum(0.25, 0.7, 3)
    doc = spectrum_to_json_dict(s)
    back = spectrum_from_json_dict(doc)
    assert _rows(back) == _rows(s)
    assert (back.weyl_c1, back.weyl_c2) == (s.weyl_c1, s.weyl_c2)
    assert (back.trace_bound_c3, back.trace_bound_c4) == \
        (s.trace_bound_c3, s.trace_bound_c4)
    assert back.truncated_at == s.truncated_at


def test_json_without_cutoff_defaults_to_largest_eigenvalue():
    doc = spectrum_to_json_dict(circle_spectrum(0.25, 0.7, 3))
    del doc["truncated_at"]
    back = spectrum_from_json_dict(doc)
    assert back.truncated_at == max(map(abs, back.lams.tolist()))


def test_json_weyl_fitted_when_absent():
    doc = {"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1.0, 0.0]},
                    {"lambda": -2.0, "multiplicity": 1, "trace": [0.0, 1.0]}]}
    s = spectrum_from_json_dict(doc)
    assert s.weyl_c1 > 0
    assert s.traces[1] == 1j


@pytest.mark.parametrize("doc, fragment", [
    ({}, "data"),
    ({"data": []}, "non-empty"),
    ({"data": ["x"]}, "data[0]"),
    ({"data": [{"lambda": 1.0, "multiplicity": 1}]}, "data[0]"),
    ({"data": [{"lambda": True, "multiplicity": 1, "trace": [1, 0]}]},
     "lambda"),
    ({"data": [{"lambda": 1.0, "multiplicity": 1.5, "trace": [1, 0]}]},
     "multiplicity"),
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1]}]}, "trace"),
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1, 0]}],
      "weyl": {"c1": 0.5}}, "weyl"),
    ({"data": [{"lambda": 1.0, "multiplicity": 2**70, "trace": [1, 0]}]},
     "data[0].multiplicity: must be a 64-bit integer"),
    # metadata follows the type rule of the lambda column
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1, 0]}],
      "truncated_at": "3.5"}, '"truncated_at" must be a number'),
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1, 0]}],
      "truncated_at": True}, '"truncated_at" must be a number'),
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1, 0]}],
      "weyl": {"c1": "0.5", "c2": 1, "c3": 1, "c4": 0}}, '"weyl" an object'),
    ({"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [1, 0]}],
      "weyl": {"c1": 0.5, "c2": True, "c3": 1, "c4": 0}}, '"weyl" an object'),
])
def test_json_rejects_malformed_documents(doc, fragment):
    with pytest.raises(InvalidSpectrumError, match=None) as err:
        spectrum_from_json_dict(doc)
    assert fragment in str(err.value)


def test_json_labels_invalid_record_values():
    doc = {"data": [{"lambda": 0.0, "multiplicity": 1, "trace": [1.0, 0.0]}]}
    with pytest.raises(InvalidSpectrumError, match=r"data\[0\]"):
        spectrum_from_json_dict(doc)
    doc = {"data": [{"lambda": 1.0, "multiplicity": 1, "trace": [2.0, 0.0]}]}
    with pytest.raises(InvalidTraceError, match=r"data\[0\]"):
        spectrum_from_json_dict(doc)


def _records(n):
    return [{"lambda": float(k + 1), "multiplicity": 1, "trace": [1.0, 0.0]}
            for k in range(n)]


def test_json_names_a_zero_eigenvalue_at_its_record():
    doc = {"data": _records(8)}
    doc["data"][3]["lambda"] = 0.0
    doc["data"][6]["lambda"] = 0.0
    with pytest.raises(InvalidSpectrumError,
                       match=r"^data\[3\]: zero eigenvalue"):
        spectrum_from_json_dict(doc)


def test_json_names_an_overlarge_trace_at_its_record():
    doc = {"data": _records(8)}
    doc["data"][5]["trace"] = [0.0, 1.5]
    doc["data"][7]["trace"] = [3.0, 0.0]
    with pytest.raises(InvalidTraceError,
                       match=r"^data\[5\]: \|trace\| = 1\.5 exceeds "
                             r"multiplicity 1"):
        spectrum_from_json_dict(doc)


def test_json_reports_whichever_bad_record_comes_first():
    # As in format 2, a malformed record is named before an earlier invalid
    # value; among invalid values the first record wins.
    doc = {"data": _records(6)}
    doc["data"][1]["lambda"] = math.nan
    del doc["data"][4]["trace"]
    with pytest.raises(InvalidSpectrumError,
                       match=r"^data\[4\]: missing key 'trace'"):
        spectrum_from_json_dict(doc)
    doc["data"][4]["trace"] = [1.0, 0.0]
    doc["data"][5]["multiplicity"] = 0
    with pytest.raises(InvalidSpectrumError,
                       match=r"^data\[1\]: eigenvalue must be finite"):
        spectrum_from_json_dict(doc)


def test_dump_and_load_files(tmp_path):
    s = circle_spectrum(0.3, 0.2, 4)
    path = tmp_path / "spectrum.json"
    dump_spectrum(s, path)
    loaded = load_spectrum(path)
    assert _rows(loaded) == _rows(s)
    # the file is plain JSON, inspectable by other tools
    doc = json.loads(path.read_text())
    assert {"data", "weyl"} <= set(doc)


def test_dump_and_load_keep_the_eta_result(tmp_path):
    # the cutoff fixes the resolved floor and the truncation bound, so a
    # reloaded spectrum must give the same eta to the last bit
    s = circle_spectrum(0.25, 0.0, 2000)
    path = tmp_path / "circle.json"
    dump_spectrum(s, path)
    before, after = eta_invariant(s), eta_invariant(load_spectrum(path))
    assert after.value == before.value
    assert after.est_error == before.est_error
    assert after.truncation_error == before.truncation_error


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidSpectrumError, match="not valid JSON"):
        load_spectrum(path)
