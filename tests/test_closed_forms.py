"""Closed-form eta, contribution and Dirichlet variant against the
adaptive-quadrature oracle.

The runtime sums exact per-mode integrals; the oracle in oracles.py
integrates the spectral sums numerically over every heat time from the
same lower limit (the resolved floor, or 0 when it is refused). The
contribution's collar part is integrated from 0 instead, because the
contribution does not depend on the collar and the runtime does not cut
that part at the floor. Inputs are
random finite spectra with mixed signs, multiplicities and complex traces,
and twisted circles large enough for the resolved floor to be used.
The oracle's roundoff warning is an error here: its error estimate joins
every tolerance, so it must be one to trust. eta's est_error is also
held, with no slack, against its own finite sum evaluated at 40 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyleta import (
    BoundarySpectrum,
    circle_spectrum,
    contribution,
    dirichlet_variant_contribution,
    eta_invariant,
    from_records,
)

from oracles import (collar_integral_by_quadrature, eta_by_quadrature,
                     eta_sum_40_digits, gap_40_digits)

pytestmark = pytest.mark.filterwarnings(
    "error::scipy.integrate.IntegrationWarning")

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
    s_lo = spectrum.floor_analysis.floor or 0.0

    # eta's budget covers the rounding of its own sum, measured against the
    # same sum at 40 digits with no slack; the quadrature checks the sum.
    eta = eta_invariant(spectrum)
    assert gap_40_digits(eta.value, eta_sum_40_digits(lams, traces, s_lo)) \
        <= eta.est_error
    want, oracle_err = eta_by_quadrature(lams, traces, s_lo)
    assert oracle_err <= ORACLE_CAP
    assert abs(eta.value - want) <= eta.est_error + oracle_err

    # The contribution is eta's integrand from s_lo, halved, plus the
    # collar part of the bracket from 0, which the cut at s_lo must not
    # drop: it integrates to 0 over all heat times, not over [s_lo, inf).
    report = contribution(spectrum, a_prime)
    eta_part, eta_err = eta_by_quadrature(lams, traces, s_lo)
    collar, collar_err = collar_integral_by_quadrature(
        lams, traces, a_prime, collar_only=True)
    oracle_err = 0.5 * eta_err + collar_err
    assert oracle_err <= ORACLE_CAP
    assert abs(report.direct_value + 0.5 * eta_part + collar) \
        <= report.est_error + oracle_err

    dirichlet = dirichlet_variant_contribution(spectrum, a_prime)
    want, oracle_err = collar_integral_by_quadrature(
        lams, traces, a_prime, s_lo, dirichlet=True)
    assert oracle_err <= ORACLE_CAP
    assert abs(dirichlet.value + want) <= dirichlet.est_error + oracle_err


def _check_dirichlet_shift(spectrum, a_prime):
    # A^F - A = -sum_{lam < 0} a e^{-2 a' |lam|}. On a spectrum whose floor
    # is used at a narrow collar, each side also carries the priced cut of
    # its collar-dependent part, so their budgets join the tolerance.
    lams, traces = spectrum.lams, spectrum.traces
    neg = lams < 0.0
    shift = -complex((traces[neg] * np.exp(-2.0 * a_prime * np.abs(lams[neg])))
                     .sum())
    report = contribution(spectrum, a_prime)
    dirichlet = dirichlet_variant_contribution(spectrum, a_prime)
    gap = abs(dirichlet.value - report.direct_value - shift)
    assert gap <= 1e-12 + dirichlet.est_error + report.est_error


@PROPERTY
@given(finite_spectra(), collars)
def test_finite_spectra_agree_with_quadrature_oracle(spectrum, a_prime):
    _check_against_oracle(spectrum, a_prime)


@CIRCLES
@given(circles(), collars)
def test_circles_agree_with_quadrature_oracle(spectrum, a_prime):
    _check_against_oracle(spectrum, a_prime)


# Identity circles on which eta's rounding comes closest to its budget,
# found on a grid of twists k/200 and n_max 10 to 120: gap / est_error is
# 0.52 to 0.58, and with the roundoff part of the budget halved the gap
# exceeds it on each, by 2 to 12%.
CLOSEST_CIRCLES = [(0.07, 60), (0.26, 50), (0.465, 110), (0.78, 120),
                   (0.935, 80)]


@pytest.mark.parametrize("twist, n_max", CLOSEST_CIRCLES)
def test_eta_budget_covers_its_rounding_on_circles(twist, n_max):
    spectrum = circle_spectrum(twist, 0.0, n_max)
    floor = spectrum.floor_analysis.floor
    assert floor is not None
    eta = eta_invariant(spectrum)
    exact = eta_sum_40_digits(spectrum.lams, spectrum.traces, floor)
    assert gap_40_digits(eta.value, exact) <= eta.est_error


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
