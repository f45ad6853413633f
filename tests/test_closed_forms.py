"""Closed-form eta, contribution and Dirichlet variant against the
adaptive-quadrature oracle.

The runtime sums exact per-mode integrals; the oracle in oracles.py
integrates the spectral sums numerically over every heat time from the
same lower limit (the resolved floor, or 0 when it is refused). Inputs are
random finite spectra with mixed signs, multiplicities and complex traces,
and twisted circles large enough for the resolved floor to be used.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cyleta import (
    BoundarySpectrum,
    circle_spectrum,
    contribution,
    eta_invariant,
    from_records,
    resolved_floor,
)
from cyleta.contribution import _dirichlet_variant_detailed

from oracles import collar_integral_by_quadrature, eta_by_quadrature

# The oracle's own error estimate must stay below this, so that adding it
# to the tolerance cannot make a comparison vacuous.
ORACLE_CAP = 1e-9

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)
CIRCLES = settings(derandomize=True, deadline=None, database=None,
                   max_examples=12)


@st.composite
def finite_spectra(draw):
    """1 to 40 modes with distinct |lam| in [0.2, 20], either sign,
    multiplicity 1 to 3 and a trace anywhere in the allowed disc."""
    n = draw(st.integers(1, 40))
    abs_lams = draw(st.lists(st.floats(0.2, 20.0), min_size=n, max_size=n,
                             unique=True))
    records = []
    for lam in abs_lams:
        sign = draw(st.sampled_from((-1.0, 1.0)))
        mult = draw(st.integers(1, 3))
        radius = mult * draw(st.floats(0.0, 1.0))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        records.append((sign * lam, mult, radius * math.cos(phase),
                        radius * math.sin(phase)))
    return from_records(records)


@st.composite
def circles(draw):
    n_max = draw(st.sampled_from((200, 2000)))
    twist = draw(st.floats(0.1, 0.9))
    angle = draw(st.sampled_from((0.0, 0.7, 2.3)))
    return circle_spectrum(twist, angle, n_max)


collars = st.floats(0.05, 5.0)


def _negated(spectrum):
    # Distinct |lam| keep the stored order valid after the sign flip.
    return BoundarySpectrum(
        -spectrum.lams, spectrum.multiplicity, spectrum.traces,
        weyl_c1=spectrum.weyl_c1, weyl_c2=spectrum.weyl_c2,
        trace_bound_c3=spectrum.trace_bound_c3,
        trace_bound_c4=spectrum.trace_bound_c4,
        truncated_at=spectrum.truncated_at)


def _check_against_oracle(spectrum, a_prime):
    lams, traces = spectrum.lams, spectrum.traces
    s_lo = resolved_floor(spectrum) or 0.0

    eta = eta_invariant(spectrum)
    want, oracle_err = eta_by_quadrature(lams, traces, s_lo)
    assert oracle_err <= ORACLE_CAP
    assert abs(eta.value - want) <= eta.est_error + oracle_err

    report = contribution(spectrum, a_prime)
    want, oracle_err = collar_integral_by_quadrature(lams, traces, a_prime,
                                                     s_lo)
    assert oracle_err <= ORACLE_CAP
    assert abs(report.direct_value + want) <= report.est_error + oracle_err

    value, est = _dirichlet_variant_detailed(spectrum, a_prime)
    want, oracle_err = collar_integral_by_quadrature(
        lams, traces, a_prime, s_lo, dirichlet=True)
    assert oracle_err <= ORACLE_CAP
    assert abs(value + want) <= est + oracle_err


def _check_dirichlet_shift(spectrum, a_prime):
    # A^F - A = -sum_{lam < 0} a e^{-2 a' |lam|}. On a spectrum whose floor
    # is used at a narrow collar, each side also carries the priced cut of
    # its collar-dependent part, so their budgets join the tolerance.
    lams, traces = spectrum.lams, spectrum.traces
    neg = lams < 0.0
    shift = -complex((traces[neg] * np.exp(-2.0 * a_prime * np.abs(lams[neg])))
                     .sum())
    report = contribution(spectrum, a_prime)
    value, est = _dirichlet_variant_detailed(spectrum, a_prime)
    gap = abs(value - report.direct_value - shift)
    assert gap <= 1e-12 + est + report.est_error


@PROPERTY
@given(finite_spectra(), collars)
def test_finite_spectra_agree_with_quadrature_oracle(spectrum, a_prime):
    _check_against_oracle(spectrum, a_prime)


@CIRCLES
@given(circles(), collars)
def test_circles_agree_with_quadrature_oracle(spectrum, a_prime):
    _check_against_oracle(spectrum, a_prime)


@PROPERTY
@given(finite_spectra(), collars)
def test_dirichlet_shift_on_finite_spectra(spectrum, a_prime):
    _check_dirichlet_shift(spectrum, a_prime)


@CIRCLES
@given(circles(), collars)
def test_dirichlet_shift_on_circles(spectrum, a_prime):
    _check_dirichlet_shift(spectrum, a_prime)


@PROPERTY
@given(finite_spectra())
def test_eta_is_odd_under_negation(spectrum):
    assert eta_invariant(_negated(spectrum)).value \
        == -eta_invariant(spectrum).value
