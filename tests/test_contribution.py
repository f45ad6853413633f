"""Contribution-from-infinity integrals, both boundary conditions."""

import math
import sys

import pytest

from cyleta import (
    DomainError,
    circle_spectrum,
    contribution,
    dirichlet_variant_contribution,
    eta_invariant,
    from_records,
)

from cyleta.contribution import _check_a_prime
from cyleta.identities import _lambda_kernel

from oracles import contribution_by_double_quadrature, contribution_integrand


def _single(lam, trace=1.0):
    return from_records([(lam, 1, trace, 0.0)])


# A small spectrum with both signs, a repeated eigenspace, and complex
# traces, so the vectorized integrand is exercised off the easy path.
MIXED = from_records([
    (0.4, 1, 1.0, 0.0),
    (-0.9, 1, 0.7, 0.0),
    (1.6, 2, -1.2, 0.3),
    (-2.5, 1, 0.5, -0.4),
])


# ---------------------------------------------------------------------------
# the integrand


@pytest.mark.parametrize("s", [0.05, 0.7, 3.0])
def test_integrand_matches_per_mode_kernel_sum(s):
    # The collapsed bracket used internally must agree with summing the
    # diagonal mode kernels one eigenvalue at a time.
    a_prime = 0.6
    expected = 0j
    for lam, trace in zip(MIXED.lams.tolist(), MIXED.traces.tolist()):
        expected += trace * _lambda_kernel(lam, s, a_prime, a_prime)
    got = contribution_integrand(MIXED.lams, MIXED.traces, a_prime, s)
    assert got == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("a_prime", [0.0, -0.5, math.inf, math.nan])
def test_integrand_rejects_bad_collar(a_prime):
    # Every collar integrand the package evaluates, for both boundary
    # conditions and the vanishing verifier, takes its a' through this check.
    with pytest.raises(DomainError):
        _check_a_prime(a_prime)


# ---------------------------------------------------------------------------
# the contribution with the spectral boundary condition


def test_single_positive_mode_is_minus_half():
    report = contribution(_single(2.0), 0.7)
    assert report.direct_value == pytest.approx(-0.5, abs=1e-12)
    assert report.direct_value.imag == 0.0


def test_single_negative_mode_is_plus_half():
    report = contribution(_single(-1.25), 0.6)
    assert report.direct_value == pytest.approx(0.5, abs=1e-12)


def test_direct_route_agrees_with_composition_quadrature():
    # Independent route: compose two half-time Dirichlet propagators, apply
    # the first-slot derivative that realizes the lam < 0 boundary
    # condition, and integrate the diagonal over all heat times.
    report = contribution(_single(-1.25), 0.6)
    oracle = contribution_by_double_quadrature(-1.25, 0.6, derivative="first")
    assert report.direct_value.real == pytest.approx(oracle, abs=1e-9)


def test_contribution_evaluates_no_mode(monkeypatch):
    # Once eta's sum is kept, the contribution is -f1 eta/2 at every collar:
    # no erfc or erfcx runs and no numpy call builds a per-mode array, also
    # where the collar factor lives (a'^2/s_f = 0.4 at a' = 0.02 here).
    spectrum = circle_spectrum(0.25, 0.0, 200)
    eta = eta_invariant(spectrum)

    def refuse(*args):
        raise AssertionError("the contribution evaluated a per-mode kernel")

    monkeypatch.setattr("cyleta._special._erfcx_block", refuse)
    monkeypatch.setattr("cyleta._special._erfc_block", refuse)
    monkeypatch.setattr(sys.modules["cyleta.contribution"], "np", None)
    for a_prime in (0.02, 0.5, 5.0):
        for f1 in (1.0, 1.3, -0.7):
            report = contribution(spectrum, a_prime, f1)
            assert report.direct_value == report.decomposed_value \
                == -0.5 * (f1 * eta.value)
            assert report.est_error == abs(f1) * eta.est_error


def test_decomposition_identity_is_exact():
    report = contribution(MIXED, 0.5)
    rebuilt = -0.5 * report.eta_reference + report.vanishing_residual
    assert report.decomposed_value == rebuilt


def test_direct_and_decomposed_agree():
    report = contribution(MIXED, 0.5)
    dev = abs(report.direct_value - report.decomposed_value)
    assert dev <= report.est_error + 1e-12


def test_direct_value_is_half_signed_trace_sum():
    # Whatever the collar width, the direct integral telescopes to
    # -f1/2 * sum_j a_j sgn(lam_j).
    spec = from_records([(0.3, 1, 1.0, 0.0),
                         (-1.1, 2, 1.5, 0.0),
                         (2.2, 1, 0.25, 0.0)])
    target = -0.5 * (1.0 - 1.5 + 0.25)
    for a_prime in (0.35, 1.2):
        report = contribution(spec, a_prime)
        assert report.direct_value == pytest.approx(target, abs=1e-9)


def test_direct_value_ignores_collar_width():
    spec = circle_spectrum(0.25, 0.0, 300)
    narrow = contribution(spec, 0.3)
    wide = contribution(spec, 0.9)
    dev = abs(narrow.direct_value - wide.direct_value)
    assert dev <= 2.0 * (narrow.est_error + wide.est_error)


def test_decomposed_value_at_a_narrow_collar():
    # V(0.05) is exactly 0, so the decomposition reproduces -eta/2
    spec = circle_spectrum(0.25, 0.0, 20000)
    report = contribution(spec, 0.05)
    eta = eta_invariant(spec).value
    assert abs(report.decomposed_value + 0.5 * eta) <= 1e-12


def test_f1_weight_scales_everything():
    base = contribution(MIXED, 0.5)
    doubled = contribution(MIXED, 0.5, f1_at_aprime=2.0)
    assert doubled.direct_value == 2.0 * base.direct_value
    assert doubled.eta_reference == 2.0 * base.eta_reference
    assert doubled.est_error == 2.0 * base.est_error


def test_eta_reference_is_the_eta_invariant():
    spec = circle_spectrum(0.25, 0.0, 300)
    report = contribution(spec, 0.3)
    assert report.eta_reference == eta_invariant(spec).value


def test_error_estimate_is_positive_and_finite():
    report = contribution(MIXED, 0.5)
    assert math.isfinite(report.est_error)
    assert report.est_error > 0.0


def test_report_serializes_real_imag_pairs():
    doc = contribution(_single(2.0), 0.7).to_json_dict()
    assert set(doc) == {"a_prime", "f1_at_aprime", "direct_value",
                        "decomposed_value", "vanishing_residual",
                        "eta_reference", "est_error"}
    assert doc["direct_value"] == pytest.approx([-0.5, 0.0], abs=1e-12)
    assert doc["a_prime"] == 0.7


@pytest.mark.parametrize("a_prime", [0.0, -1.0, math.inf, math.nan])
def test_contribution_rejects_bad_collar(a_prime):
    with pytest.raises(DomainError):
        contribution(MIXED, a_prime)


@pytest.mark.parametrize("f1", [math.inf, math.nan])
def test_contribution_rejects_bad_weight(f1):
    with pytest.raises(DomainError):
        contribution(MIXED, 0.5, f1_at_aprime=f1)


# ---------------------------------------------------------------------------
# the Dirichlet variant

# Per-mode values: lam > 0 still telescopes to -1/2, but each lam < 0 mode
# keeps a collar-dependent defect and contributes +1/2 - e^{-2 a' |lam|}.


@pytest.mark.parametrize("lam, a_prime, expected", [
    (2.0, 0.5, -0.5),
    (-2.0, 0.5, 0.5 - math.exp(-2.0)),
    (-1.0, 0.5, 0.5 - math.exp(-1.0)),
    (-0.75, 0.5, 0.5 - math.exp(-0.75)),
])
def test_dirichlet_variant_per_mode(lam, a_prime, expected):
    value = dirichlet_variant_contribution(_single(lam), a_prime).value
    assert value == pytest.approx(expected, abs=1e-12)
    assert value.imag == 0.0


@pytest.mark.parametrize("lam", [2.0, -0.75])
def test_dirichlet_variant_agrees_with_composition_quadrature(lam):
    value = dirichlet_variant_contribution(_single(lam), 0.5).value
    oracle = contribution_by_double_quadrature(lam, 0.5, derivative="second")
    assert value.real == pytest.approx(oracle, abs=1e-9)


def test_dirichlet_variant_symmetric_pair_keeps_defect():
    # A symmetric spectrum has eta = 0, yet the Dirichlet value does not
    # vanish: the negative mode leaves its -e^{-2 a' |lam|} behind.
    pair = from_records([(-2.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0)])
    value = dirichlet_variant_contribution(pair, 0.5).value
    assert value == pytest.approx(-math.exp(-2.0), abs=1e-12)


def test_dirichlet_variant_on_circle_spectrum():
    # Negative circle eigenvalues sit at -(n + 3/4), so the defects form a
    # geometric series: -eta/2 - e^{-3 a'/2} / (1 - e^{-2 a'}) at a' = 1/2.
    spec = circle_spectrum(0.25, 0.0, 2000)
    expected = -0.25 - math.exp(-0.75) / (1.0 - math.exp(-1.0))
    value = dirichlet_variant_contribution(spec, 0.5).value
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("twist, n_max, a_prime",
                         [(0.5, 200, 0.05), (0.3, 2000, 0.01),
                          (0.3, 2000, 0.003)])
def test_dirichlet_budget_covers_a_narrow_collar(twist, n_max, a_prime):
    # At a'^2/s_f from 0.9 to 10 the variant from the resolved floor
    # misses the collar-dependent part of [0, s_f], 2e-3 to 68 away from
    # the infinite circle's -(1 - 2 twist)/2 - e^{2 a' twist}/(e^{2 a'} - 1).
    # Only the priced cut of that part covers the gap; the rest of the
    # budget is roundoff, below 1e-12.
    spectrum = circle_spectrum(twist, 0.0, n_max)
    floor = spectrum.floor_analysis.floor
    assert 0.5 < a_prime * a_prime / floor < 11.0
    result = dirichlet_variant_contribution(spectrum, a_prime)
    gap = abs(result.value + 0.5 * (1.0 - 2.0 * twist)
              + math.exp(2.0 * a_prime * twist) / math.expm1(2.0 * a_prime))
    assert 1e-3 < gap <= result.est_error


def test_dirichlet_variant_reads_as_its_value():
    result = dirichlet_variant_contribution(_single(-2.0), 0.5)
    assert complex(result) == result.value
    assert result + 1e-9 == result.value + 1e-9
    assert result.to_json_dict() == {
        "value": [result.value.real, result.value.imag],
        "est_error": result.est_error}


@pytest.mark.parametrize("a_prime", [0.0, -0.5, math.nan])
def test_dirichlet_variant_rejects_bad_collar(a_prime):
    with pytest.raises(DomainError):
        dirichlet_variant_contribution(_single(2.0), a_prime)
