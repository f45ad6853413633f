"""Array storage of BoundarySpectrum: no hashing on any runtime path,
exact save-reload round trips, immutability, and agreement with a
record-by-record construction of the same modes."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyleta import (
    BoundarySpectrum,
    aps_index,
    circle_spectrum,
    contribution,
    direct_sum,
    dirichlet_variant_contribution,
    dump_spectrum,
    eta_invariant,
    from_records,
    load_spectrum,
)

ROUND_TRIPS = settings(derandomize=True, deadline=None, database=None,
                       max_examples=40)

ROWS = [(0.4, 1, 1.0, 0.0), (-0.9, 2, 0.7, 1.1), (1.6, 3, -1.2, 0.3),
        (-2.5, 1, 0.5, -0.4)]


def _arrays_of(spectrum):
    return spectrum.lams, spectrum.multiplicity, spectrum.traces


def _rows(spectrum):
    """The modes as (lambda, multiplicity, trace) tuples of Python numbers."""
    return list(zip(*(array.tolist() for array in _arrays_of(spectrum))))


# ---------------------------------------------------------------------------
# no hashing; the package has no per-mode record type to build


def test_runtime_paths_neither_hash_nor_build_records(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("runtime path hashed a spectrum")

    monkeypatch.setattr(BoundarySpectrum, "__hash__", forbidden)

    circle = circle_spectrum(0.25, 0.7, 50)
    records = from_records(ROWS)
    merged = direct_sum(circle, records)
    path = tmp_path / "merged.json"
    dump_spectrum(merged, path)
    reloaded = load_spectrum(path)
    for spectrum in (circle, records, merged, reloaded):
        eta_invariant(spectrum)
        contribution(spectrum, 0.3)
        dirichlet_variant_contribution(spectrum, 0.3)
        aps_index(spectrum, 1.0)
    # the guard itself works
    with pytest.raises(AssertionError, match="hash"):
        hash(circle)


# ---------------------------------------------------------------------------
# save and reload


@st.composite
def record_spectra(draw):
    """1 to 30 modes with distinct |lam|, either sign, multiplicity 1 to 3
    and a complex trace anywhere in the allowed disc."""
    n = draw(st.integers(1, 30))
    abs_lams = draw(st.lists(st.floats(0.05, 50.0), min_size=n, max_size=n,
                             unique=True))
    rows = []
    for lam in abs_lams:
        mult = draw(st.integers(1, 3))
        radius = mult * draw(st.floats(0.0, 1.0))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        rows.append((draw(st.sampled_from((-1.0, 1.0))) * lam, mult,
                     radius * math.cos(phase), radius * math.sin(phase)))
    return from_records(rows)


@st.composite
def circles(draw):
    return circle_spectrum(draw(st.floats(0.01, 0.99)),
                           draw(st.sampled_from((0.0, 0.7, math.pi, 5.1))),
                           draw(st.sampled_from((3, 40, 400))))


@ROUND_TRIPS
@given(st.one_of(record_spectra(), circles()))
def test_save_and_reload_keep_arrays_metadata_and_eta(tmp_path_factory,
                                                      spectrum):
    path = tmp_path_factory.mktemp("round-trip") / "spectrum.json"
    dump_spectrum(spectrum, path)
    back = load_spectrum(path)
    for got, want in zip(_arrays_of(back), _arrays_of(spectrum)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for name in ("weyl_c1", "weyl_c2", "trace_bound_c3", "trace_bound_c4",
                 "truncated_at"):
        assert getattr(back, name) == getattr(spectrum, name)
    before, after = eta_invariant(spectrum), eta_invariant(back)
    assert after.value == before.value
    assert after.est_error == before.est_error
    assert after.truncation_error == before.truncation_error


# ---------------------------------------------------------------------------
# immutability


def test_stored_arrays_cannot_be_written():
    spectrum = circle_spectrum(0.25, 0.7, 5)
    for array in _arrays_of(spectrum):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_attributes_cannot_be_assigned():
    spectrum = circle_spectrum(0.25, 0.7, 5)
    with pytest.raises(AttributeError):
        spectrum.lams = np.zeros(11)
    with pytest.raises(AttributeError):
        spectrum.truncated_at = 1.0


def test_later_changes_to_the_input_arrays_do_not_reach_the_spectrum():
    source = circle_spectrum(0.25, 0.7, 200)
    lams, mult, traces = (np.array(a) for a in _arrays_of(source))
    spectrum = BoundarySpectrum(
        lams, mult, traces, weyl_c1=source.weyl_c1, weyl_c2=source.weyl_c2,
        trace_bound_c3=source.trace_bound_c3,
        trace_bound_c4=source.trace_bound_c4,
        truncated_at=source.truncated_at)
    before = eta_invariant(spectrum)
    lams *= 2.0
    mult += 1
    traces[:] = 0.0
    for got, want in zip(_arrays_of(spectrum), _arrays_of(source)):
        assert np.array_equal(got, want)
    after = eta_invariant(spectrum)
    assert (after.value, after.est_error, after.truncation_error) == \
        (before.value, before.est_error, before.truncation_error)


def test_equality_and_hash_are_those_of_the_object():
    a, b = circle_spectrum(0.25, 0.0, 5), circle_spectrum(0.25, 0.0, 5)
    assert a == a and a != b
    assert len({a, b}) == 2


# ---------------------------------------------------------------------------
# the record-by-record construction as reference


@pytest.mark.parametrize("twist, angle, n_max", [
    (0.25, 0.0, 300), (0.5, 0.7, 40), (0.83, 2.3, 100)])
def test_circle_matches_record_by_record_construction(twist, angle, n_max):
    records = sorted(
        ((n + twist, 1, cmath.exp(-1j * n * angle))
         for n in range(-n_max, n_max + 1)),
        key=lambda d: (abs(d[0]), 0 if d[0] < 0 else 1))
    spectrum = circle_spectrum(twist, angle, n_max)
    assert _rows(spectrum) == records
    assert spectrum.weyl_c1 == min(
        abs(d[0]) / math.sqrt(j) for j, d in enumerate(records, start=1))


def test_direct_sum_matches_record_by_record_merge():
    a = circle_spectrum(0.25, 0.3, 20)
    b = from_records(ROWS + [(1.25, 1, 0.0, 1.0), (-2.75, 2, 1.0, 1.0)])
    merged: list[tuple] = []
    for d in sorted(_rows(a) + _rows(b), key=lambda d: d[0]):
        if merged and abs(merged[-1][0] - d[0]) <= 1e-12:
            prev = merged[-1]
            merged[-1] = (prev[0], prev[1] + d[1], prev[2] + d[2])
        else:
            merged.append(d)
    merged.sort(key=lambda d: (abs(d[0]), 0 if d[0] < 0 else 1))
    got = direct_sum(a, b)
    assert _rows(got) == merged
    assert len(got) == len(a) + len(b) - 2
