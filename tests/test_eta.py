"""Heat traces and the regularized spectral asymmetry."""

import math

import pytest

from cyleta import (
    DomainError,
    circle_spectrum,
    direct_sum,
    eta_circle_oracle,
    eta_invariant,
    from_records,
    heat_trace,
    tail_bound,
)


def _single(lam=2.0, trace=1.0):
    return from_records([(lam, 1, trace, 0.0)])


# ---------------------------------------------------------------------------
# heat trace


def test_heat_trace_single_eigenspace():
    # Tr(g e^{-s D^2} D) for one eigenspace: trace * lam * e^{-s lam^2}.
    s = from_records([(2.0, 2, 2.0, 0.0)])
    assert heat_trace(s, 1.0) == pytest.approx(2.0 * 2.0 * math.exp(-4.0),
                                               rel=1e-15)


def test_heat_trace_truncation_insensitive():
    small = heat_trace(circle_spectrum(0.25, 0.0, 50), 1.0)
    large = heat_trace(circle_spectrum(0.25, 0.0, 500), 1.0)
    assert abs(small - large) <= 1e-15


@pytest.mark.parametrize("s", [0.0, -1.0])
def test_heat_trace_needs_positive_time(s):
    with pytest.raises(DomainError):
        heat_trace(_single(), s)


# ---------------------------------------------------------------------------
# the invariant itself


def test_eta_single_positive_mode_is_one():
    res = eta_invariant(_single(2.0))
    # no resolved floor on one mode, so the value is the s -> 0 limit
    # sum_j a_j sgn(lam_j), exactly
    assert res.value == 1.0
    assert res.est_error < 1e-10


def test_eta_symmetric_spectrum_cancels_exactly():
    sym = from_records([(1.0, 1, 1.0, 0.0), (-1.0, 1, 1.0, 0.0)])
    assert eta_invariant(sym).value == 0j


def test_eta_circle_against_oracle():
    res = eta_invariant(circle_spectrum(0.25, 0.0, 2000))
    assert res.value.real == pytest.approx(0.5, abs=1e-8)
    assert res.value.imag == 0.0


def test_eta_additive_under_direct_sum():
    # Two complete hand-made spectra: eta is linear in the spectral data.
    # (Additivity is not expected when merging truncated spectra, because
    # the merge keeps the smaller completeness cutoff.)
    a = from_records([(0.5, 1, 1.0, 0.0), (-1.5, 1, 0.8, 0.0),
                      (2.5, 2, 1.2, 0.0)])
    b = from_records([(0.7, 1, 0.4, 0.0), (-2.2, 1, 1.0, 0.0)])
    whole = eta_invariant(direct_sum(a, b))
    parts = eta_invariant(a).value + eta_invariant(b).value
    assert whole.value == pytest.approx(parts, abs=1e-10)


def test_eta_flips_sign_with_the_spectrum():
    pos = from_records([(0.5, 1, 1.0, 0.0), (-1.5, 1, 1.0, 0.0),
                        (2.5, 1, 0.5, 0.0)])
    neg = from_records([(-0.5, 1, 1.0, 0.0), (1.5, 1, 1.0, 0.0),
                        (-2.5, 1, 0.5, 0.0)])
    # every per-mode term negates, so the two sums see identical numbers
    # and the results agree to the last bit
    assert eta_invariant(neg).value == -eta_invariant(pos).value


def test_eta_identity_element_stays_real():
    res = eta_invariant(circle_spectrum(0.25, 0.0, 100))
    assert res.value.imag == 0.0


def test_eta_complex_traces_round_trip_json():
    res = eta_invariant(circle_spectrum(0.25, 0.7, 100))
    doc = res.to_json_dict()
    assert doc["value"] == [res.value.real, res.value.imag]
    assert set(doc) == {"value", "est_error", "truncation_error"}
    assert res.truncation_error >= 0.0


def test_eta_truncation_error_is_the_tail_bound_at_the_floor():
    s = circle_spectrum(0.25, 0.0, 2000)
    floor = 40.0 / s.truncated_at**2
    assert eta_invariant(s).truncation_error == tail_bound(s, floor).bound


# ---------------------------------------------------------------------------
# the resolved floor below which nothing changes


def test_resolved_floor_active_for_dense_spectra():
    s = circle_spectrum(0.25, 0.0, 2000)
    floor = s.floor_analysis.floor
    assert floor == pytest.approx(40.0 / s.truncated_at**2, rel=1e-12)


def test_resolved_floor_inactive_for_sparse_spectra():
    assert _single(2.0).floor_analysis.floor is None
    # candidate cut is early enough, but the trace is not yet settled there
    two_scale = from_records([(0.1, 1, 1.0, 0.0), (50.0, 1, 1.0, 0.0)])
    assert two_scale.floor_analysis.floor is None


# ---------------------------------------------------------------------------
# the closed-form circle value


@pytest.mark.parametrize("twist, want", [
    (0.5, 0.0),
    (0.25, 0.5),
    (0.75, -0.5),
    (0.1, 0.8),
])
def test_circle_oracle_values(twist, want):
    assert eta_circle_oracle(twist) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("twist", [0.0, 1.0, -0.2, 1.3])
def test_circle_oracle_domain(twist):
    with pytest.raises(DomainError):
        eta_circle_oracle(twist)
