"""Array storage of BoundarySpectrum: no hashing on any runtime path,
exact save-reload round trips, immutability, and agreement with a
record-by-record construction of the same modes."""

import cmath
import math
import tracemalloc

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
    spectrum_from_json_dict,
)

ROUND_TRIPS = settings(derandomize=True, deadline=None, database=None,
                       max_examples=40)

ROWS = [(0.4, 1, 1.0, 0.0), (-0.9, 2, 0.7, 1.1), (1.6, 3, -1.2, 0.3),
        (-2.5, 1, 0.5, -0.4)]

MB = 2.0 ** 20


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
    # The multiplicities, and at angle 0 the traces, are kept as one entry.
    for angle in (0.0, 0.7):
        source = circle_spectrum(0.25, angle, 200)
        lams, mult, traces = (np.array(a) for a in _arrays_of(source))
        spectrum = BoundarySpectrum(
            lams, mult, traces, weyl_c1=source.weyl_c1, weyl_c2=source.weyl_c2,
            trace_bound_c3=source.trace_bound_c3,
            trace_bound_c4=source.trace_bound_c4,
            truncated_at=source.truncated_at)
        assert spectrum.multiplicity.strides == (0,)
        assert (spectrum.traces.strides == (0,)) == (angle == 0.0)
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
# a column whose entries all carry the same bits is kept as one entry

PATHS = ("arrays", "records", "record-form JSON", "format-2 JSON", "direct_sum")


def _meta(spectrum):
    return {name: getattr(spectrum, name) for name in (
        "weyl_c1", "weyl_c2", "trace_bound_c3", "trace_bound_c4", "truncated_at")}


def _held_once(array):
    return array.strides == (0,)


def _identity_circle():
    """Copies of the columns of a 2001-mode identity circle, whose lambdas
    vary, whose multiplicities are all 1 and whose traces are all 1+0j, and
    the circle itself."""
    source = circle_spectrum(0.25, 0.0, 1000)
    return [np.array(a) for a in _arrays_of(source)], source


def _built(path, lams, mult, traces, source):
    """The spectrum of these columns, built along one constructor path."""
    if path == "arrays":
        return BoundarySpectrum(lams, mult, traces, **_meta(source))
    rows = list(zip(lams.tolist(), mult.tolist(), traces.real.tolist(),
                    traces.imag.tolist()))
    if path == "records":
        return from_records(rows)
    if path == "record-form JSON":
        return spectrum_from_json_dict({"data": [
            {"lambda": lam, "multiplicity": m, "trace": [re, im]}
            for lam, m, re, im in rows]})
    if path == "format-2 JSON":
        names = ("lambda", "multiplicity", "trace_re", "trace_im")
        return spectrum_from_json_dict(
            {"format": 2, "data": dict(zip(names, map(list, zip(*rows))))})
    return direct_sum(from_records(rows[::2]), from_records(rows[1::2]))


@pytest.mark.parametrize("path", PATHS)
def test_every_constructor_keeps_a_constant_column_once(path):
    (lams, mult, traces), source = _identity_circle()
    spectrum = _built(path, lams, mult, traces, source)
    assert list(map(_held_once, _arrays_of(spectrum))) == [False, True, True]
    assert _rows(spectrum) == _rows(source)
    for got, want in zip(_arrays_of(spectrum), _arrays_of(source)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert not got.flags.writeable
    mult[-1] = 2  # one multiplicity differs, the last one scanned
    varying = _built(path, lams, mult, traces, source)
    assert list(map(_held_once, _arrays_of(varying))) == [False, False, True]
    assert varying.multiplicity.tolist() == [1] * 2000 + [2]


@pytest.mark.parametrize("angle, per_mode", [(0.0, 8), (0.7, 24)])
def test_a_circle_holds_only_its_varying_columns(angle, per_mode):
    # 8 bytes a mode for lambda and 16 for a trace that varies; the
    # multiplicities, and at angle 0 the traces, are one entry each.
    tracemalloc.start()
    try:
        spectrum = circle_spectrum(0.3, angle, 100000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert per_mode * len(spectrum) <= held <= per_mode * len(spectrum) + 0.05 * MB


def test_a_spectrum_with_no_constant_column_holds_32_bytes_a_mode():
    source = circle_spectrum(0.3, 0.7, 100000)
    lams, traces = np.array(source.lams), np.array(source.traces)
    mult = 1 + np.arange(len(source)) % 2
    tracemalloc.start()
    try:
        spectrum = BoundarySpectrum(lams, mult, traces, **_meta(source))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(map(_held_once, _arrays_of(spectrum)))
    assert 32 * len(spectrum) <= held <= 32 * len(spectrum) + 0.05 * MB


def test_signed_zeros_are_told_apart_and_survive_a_round_trip(tmp_path):
    # 1+0j == 1-0j, but the two print differently: a trace column that
    # mixes them is kept whole, and one of 1-0j alone is kept once.
    (lams, mult, traces), source = _identity_circle()
    mixed = traces.copy()
    mixed[1500] = complex(1.0, -0.0)
    assert mixed[1500] == mixed[0]
    negative = np.full(traces.shape, complex(1.0, -0.0))
    for column, once in ((mixed, False), (negative, True)):
        spectrum = BoundarySpectrum(lams, mult, column, **_meta(source))
        assert _held_once(spectrum.traces) == once
        path = tmp_path / "spectrum.json"
        dump_spectrum(spectrum, path)
        back = load_spectrum(path)
        assert _held_once(back.traces) == once
        assert back.traces.tobytes() == column.tobytes()
        assert np.array_equal(np.signbit(back.traces.imag), np.signbit(column.imag))


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


def _merged_record_by_record(a, b):
    """The rows of the direct sum, merged one record at a time: a record
    joins the group before it when its neighbour in signed order has its
    sign and lies within 1e-12 of the larger magnitude of the two."""
    merged: list[tuple] = []
    neighbour = None
    for d in sorted(_rows(a) + _rows(b), key=lambda d: d[0]):
        if neighbour is not None and (neighbour < 0) == (d[0] < 0) \
                and d[0] - neighbour <= 1e-12 * max(abs(neighbour), abs(d[0])):
            prev = merged[-1]
            merged[-1] = (prev[0], prev[1] + d[1], prev[2] + d[2])
        else:
            merged.append(d)
        neighbour = d[0]
    return sorted(merged, key=lambda d: (abs(d[0]), 0 if d[0] < 0 else 1))


def _near(lam, ulps):
    """lam moved by ulps units of 2**-52 relative."""
    return lam * (1.0 + ulps * 2.0**-52)


MERGES = {
    "circle and records": (circle_spectrum(0.25, 0.3, 20), from_records(
        ROWS + [(1.25, 1, 0.0, 1.0), (-2.75, 2, 1.0, 1.0)]), 2),
    "across zero": (from_records([(1e-13, 1, 1.0, 0.0), (-3e-13, 1, 1.0, 0.0)]),
                    from_records([(2e-13, 1, 1.0, 0.0)]), 0),
    "a chain at 1e6": (
        from_records([(1e6, 1, 1.0, 0.0), (_near(1e6, 8000), 1, 0.0, 1.0),
                      (-1e6, 2, 1.0, 0.0)]),
        from_records([(_near(1e6, 4000), 1, 1.0, 0.0), (_near(1e6, 20000), 1, 1.0, 0.0),
                      (_near(-1e6, 3000), 1, 0.5, 0.5)]), 3),
}


def test_direct_sum_matches_record_by_record_merge():
    for name, (a, b, coalesced) in MERGES.items():
        got = direct_sum(a, b)
        assert _rows(got) == _merged_record_by_record(a, b), name
        assert len(got) == len(a) + len(b) - coalesced, name


def test_direct_sum_keeps_small_eigenvalues_of_either_sign_apart():
    # Under a 1e-12 absolute gap in signed order the three coalesced into
    # one mode at -3e-13 of multiplicity 3, whose eta is -3.
    a = from_records([(1e-13, 1, 1.0, 0.0), (-3e-13, 1, 1.0, 0.0)])
    b = from_records([(2e-13, 1, 1.0, 0.0)])
    merged = direct_sum(a, b)
    assert merged.lams.tolist() == [1e-13, 2e-13, -3e-13]
    assert merged.multiplicity.tolist() == [1, 1, 1]
    total = eta_invariant(a).value + eta_invariant(b).value
    assert eta_invariant(merged).value == total == 1.0


@st.composite
def clustered_pairs(draw):
    """Two spectra whose eigenvalues sit in clusters a few 1e-12 wide around
    a few centres of either sign, so that some neighbours coalesce and
    some do not, and a power of two to scale both by."""
    def records():
        return [(draw(st.sampled_from((-7.5, -0.3, 0.3, 1.0, 1e3))) * (
            1.0 + draw(st.integers(-20000, 20000)) * 2.0**-52), draw(st.integers(1, 3)),
            draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7)))
            for _ in range(draw(st.integers(1, 12)))]
    return records(), records(), draw(st.integers(-300, 300))


@ROUND_TRIPS
@given(clustered_pairs())
def test_direct_sum_coalesces_alike_at_every_power_of_two(case):
    a, b, k = case
    merged = direct_sum(from_records(a), from_records(b))
    scaled = direct_sum(*(from_records([(lam * 2.0**k, *rest) for lam, *rest in rows])
                          for rows in (a, b)))
    assert scaled.lams.tolist() == [lam * 2.0**k for lam in merged.lams.tolist()]
    assert scaled.multiplicity.tolist() == merged.multiplicity.tolist()
    assert scaled.traces.tobytes() == merged.traces.tobytes()
    # numpy may add a long group's traces in another order than one by one
    want = _merged_record_by_record(from_records(a), from_records(b))
    assert [d[:2] for d in _rows(merged)] == [d[:2] for d in want]
    assert [d[2] for d in _rows(merged)] == pytest.approx([d[2] for d in want],
                                                          rel=1e-14, abs=1e-14)
