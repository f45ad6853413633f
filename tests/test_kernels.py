"""Per-mode half-line kernels against independent oracles and closed forms.

The finite-difference marcher and the matrix-exponential solver in
oracles.py know nothing about image sums or erfc corrections; they only
discretize the mode heat equation with the right boundary row. Agreement
here is what justifies trusting the closed forms everywhere else.
"""

import math

import mpmath as mp
import pytest
import sympy

from cyleta import (
    DomainError,
    ModePoint,
    aps_mode_kernel,
    dirichlet_lambda_combination,
    dirichlet_mode_kernel,
    full_line_mode_kernel,
    lambda_mode_kernel,
)
from cyleta._special import erfc
from oracles import cn_solve, erfc_defining_integral, robin_expm_corner


# ---------------------------------------------------------------------------
# erfc, the array kernel behind eta and the collar integrals


def test_erfc_matches_defining_integral():
    assert erfc(1.0) == pytest.approx(erfc_defining_integral(1.0), abs=1e-13)
    # frozen quadrature value, so a drift in both routes cannot hide
    assert erfc_defining_integral(1.0) == pytest.approx(
        0.15729920705028513, abs=2e-13)


def test_erfc_at_zero_is_one():
    assert erfc(0.0) == 1.0


def test_erfc_reflection():
    for x in (0.3, 1.7, 4.2):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-15)


def test_erfc_underflows_smoothly():
    assert 0.0 <= erfc(30.0) <= 1e-300
    assert erfc(800.0) == 0.0


# ---------------------------------------------------------------------------
# evaluation points


@pytest.mark.parametrize("kwargs", [
    dict(lam=1.0, s=0.0, y=1.0, y_prime=1.0),
    dict(lam=1.0, s=-2.0, y=1.0, y_prime=1.0),
    dict(lam=math.inf, s=1.0, y=1.0, y_prime=1.0),
    dict(lam=math.nan, s=1.0, y=0.0, y_prime=0.0),
    dict(lam=1.0, s=1.0, y=-0.5, y_prime=1.0),
    dict(lam=1.0, s=1.0, y=1.0, y_prime=-0.1),
])
def test_mode_point_rejects_bad_coordinates(kwargs):
    with pytest.raises(DomainError):
        ModePoint(**kwargs)


def test_mode_point_coerces_to_float():
    p = ModePoint(lam=1, s=2, y=0, y_prime=3)
    assert isinstance(p.s, float) and p.s == 2.0


# ---------------------------------------------------------------------------
# free kernel


def test_full_line_peak_normalization():
    # on the diagonal with lam = 0 the kernel is exactly (4 pi s)^{-1/2}
    p = ModePoint(lam=0.0, s=1.0 / (4.0 * math.pi), y=0.7, y_prime=0.7)
    assert full_line_mode_kernel(p) == pytest.approx(1.0, rel=1e-15)


def test_full_line_symmetric_in_coordinates():
    a = full_line_mode_kernel(ModePoint(1.5, 0.8, 0.2, 1.9))
    b = full_line_mode_kernel(ModePoint(1.5, 0.8, 1.9, 0.2))
    assert a == b


def test_full_line_against_finite_difference_march():
    got = full_line_mode_kernel(ModePoint(lam=1.0, s=1.0, y=2.0, y_prime=0.0))
    ref = cn_solve(1.0, 1.0, 2.0, 0.0, bc="free", y_lo=-12.0, y_hi=14.0)
    assert got == pytest.approx(ref, rel=5e-5)


# ---------------------------------------------------------------------------
# Dirichlet kernel


@pytest.mark.parametrize("lam, s, y_prime", [
    (1.0, 0.5, 0.8),
    (-2.0, 1.5, 0.2),
])
def test_dirichlet_vanishes_on_the_boundary(lam, s, y_prime):
    assert dirichlet_mode_kernel(ModePoint(lam, s, 0.0, y_prime)) == 0.0
    assert dirichlet_mode_kernel(ModePoint(lam, s, y_prime, 0.0)) == 0.0


def test_dirichlet_image_value():
    want = math.exp(-1.0) / math.sqrt(4.0 * math.pi) * (1.0 - math.exp(-1.0))
    got = dirichlet_mode_kernel(ModePoint(1.0, 1.0, 1.0, 1.0))
    assert got == pytest.approx(want, rel=1e-15)


def test_dirichlet_below_free_kernel():
    """Absorbing boundary only removes heat: 0 < kernel < free kernel."""
    for s in (0.1, 1.0, 5.0):
        p = ModePoint(0.7, s, 0.9, 1.3)
        assert 0.0 < dirichlet_mode_kernel(p) < full_line_mode_kernel(p)


def test_dirichlet_against_finite_difference_march():
    got = dirichlet_mode_kernel(ModePoint(lam=1.0, s=1.0, y=1.0, y_prime=1.0))
    ref = cn_solve(1.0, 1.0, 1.0, 1.0, bc="dirichlet", y_lo=0.0, y_hi=20.0)
    assert got == pytest.approx(ref, rel=5e-5)


# ---------------------------------------------------------------------------
# mixed-condition kernel


def test_aps_rejects_zero_mode():
    with pytest.raises(DomainError):
        aps_mode_kernel(ModePoint(0.0, 1.0, 1.0, 1.0))


@pytest.mark.parametrize("lam, s, y, y_prime", [
    (0.5, 0.3, 0.4, 1.1),
    (1.0, 2.0, 0.0, 0.6),
    (3.0, 1.0, 1.0, 1.0),
])
def test_aps_positive_modes_are_dirichlet(lam, s, y, y_prime):
    p = ModePoint(lam, s, y, y_prime)
    assert aps_mode_kernel(p) == dirichlet_mode_kernel(p)


def test_aps_negative_corner_closed_form():
    # N(G- + G+) collapses to 2N at the corner and the erfc correction
    # carries no exponential there
    got = aps_mode_kernel(ModePoint(-1.0, 1.0, 0.0, 0.0))
    want = 2.0 * math.exp(-1.0) / math.sqrt(4.0 * math.pi) - math.erfc(1.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_aps_negative_corner_against_matrix_exponential():
    got = aps_mode_kernel(ModePoint(-1.0, 1.0, 0.0, 0.0))
    assert got == pytest.approx(robin_expm_corner(-1.0, 1.0), rel=1e-5)


def test_aps_negative_interior_against_finite_difference():
    got = aps_mode_kernel(ModePoint(-1.0, 0.5, 0.5, 0.5))
    ref = cn_solve(-1.0, 0.5, 0.5, 0.5, bc="robin", y_lo=0.0, y_hi=16.0)
    assert got == pytest.approx(ref, rel=1e-4)


def test_aps_long_time_decay():
    # no bound state survives the boundary condition, so e^{-lam^2 s} wins
    assert abs(aps_mode_kernel(ModePoint(-1.0, 1000.0, 0.0, 0.0))) < 1e-100


def test_aps_far_from_boundary_no_overflow():
    # |lam|(y + y') = 1200 here; the naive erfc form would overflow
    got = aps_mode_kernel(ModePoint(-3.0, 0.05, 200.0, 200.0))
    assert got == pytest.approx(0.804410163156249, rel=1e-13)


# ---------------------------------------------------------------------------
# first-order kernel and its Dirichlet-route counterpart


def test_lambda_kernel_rejects_zero_mode():
    with pytest.raises(DomainError):
        lambda_mode_kernel(ModePoint(0.0, 1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        dirichlet_lambda_combination(ModePoint(0.0, 1.0, 1.0, 1.0))


def test_lambda_kernel_interior_value():
    # at y = y' the image contributions cancel and N remains
    got = lambda_mode_kernel(ModePoint(1.0, 1.0, 1.0, 1.0))
    want = math.exp(-1.0) / math.sqrt(4.0 * math.pi)
    assert got == pytest.approx(want, rel=5e-16)


@pytest.mark.parametrize("lam, s, y, y_prime", [
    (1.0, 1.0, 1.0, 1.0),
    (-1.0, 0.5, 0.3, 0.8),
    (2.5, 0.2, 0.6, 1.4),
    (2.5, 0.2, 0.0, 1.4),
    (-0.5, 2.0, 1.0, 0.0),
    (-3.0, 0.05, 200.0, 200.0),
])
def test_lambda_kernel_matches_high_precision(lam, s, y, y_prime):
    """Float evaluation against a 50-digit replica of the same branches.

    This checks the floating-point path (the combined-exponent erfcx
    rewrite in particular), not the formulas; those are covered by the
    symbolic tests and the decomposition identity.
    """
    got = lambda_mode_kernel(ModePoint(lam, s, y, y_prime))
    mp.mp.dps = 50
    lam_, s_, y_, yp_ = map(mp.mpf, (lam, s, y, y_prime))
    n = mp.exp(-lam_**2 * s_) / mp.sqrt(4 * mp.pi * s_)
    gm = mp.exp(-(y_ - yp_)**2 / (4 * s_))
    gp = mp.exp(-(y_ + yp_)**2 / (4 * s_))
    wm = (y_ - yp_) / (2 * s_)
    wp = (y_ + yp_) / (2 * s_)
    if lam > 0:
        ref = n * (gm * (wm + lam_) + gp * (wp - lam_))
    else:
        extra = -(lam_ / mp.sqrt(mp.pi * s_)) * mp.exp(
            -lam_**2 * s_ - (y_ + yp_)**2 / (4 * s_))
        ref = n * (gm * (wm + lam_) + gp * (-wp + lam_)) + extra
    ref = float(ref)
    assert got == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_lambda_kernel_far_from_boundary_no_overflow():
    got = lambda_mode_kernel(ModePoint(-3.0, 0.05, 200.0, 200.0))
    assert got == pytest.approx(-2.413230489468747, rel=1e-13)


def test_combination_agrees_with_lambda_kernel_sample():
    p = ModePoint(2.0, 0.5, 1.0, 1.5)
    assert lambda_mode_kernel(p) == pytest.approx(
        dirichlet_lambda_combination(p), abs=1e-12)


def test_combination_is_the_boundary_derivative():
    """At y' = 0 the positive branch reduces to outward flux of the
    Dirichlet kernel, approximated by a one-sided difference quotient."""
    lam, s, y, h = 2.0, 0.5, 1.0, 1e-5
    fd = dirichlet_mode_kernel(ModePoint(lam, s, y, h)) / h
    got = dirichlet_lambda_combination(ModePoint(lam, s, y, 0.0))
    assert got == pytest.approx(fd, abs=1e-6)


def test_combination_negative_branch_derivative():
    # lam < 0 uses (-d/dy + lam); check with a central difference in y
    lam, s, y, y_prime, h = -1.5, 0.7, 0.9, 0.4, 1e-5
    plus = dirichlet_mode_kernel(ModePoint(lam, s, y + h, y_prime))
    minus = dirichlet_mode_kernel(ModePoint(lam, s, y - h, y_prime))
    fd = -(plus - minus) / (2.0 * h) \
        + lam * dirichlet_mode_kernel(ModePoint(lam, s, y, y_prime))
    got = dirichlet_lambda_combination(ModePoint(lam, s, y, y_prime))
    assert got == pytest.approx(fd, abs=1e-8)


def test_branches_symbolically_equal_derivative_combinations():
    """Both sign branches of the first-order kernel are exactly the
    corresponding derivative combination of the image kernel."""
    lam, s, y, yp = sympy.symbols("lam s y yp", positive=True)
    n = sympy.exp(-lam**2 * s) / sympy.sqrt(4 * sympy.pi * s)
    gm = sympy.exp(-(y - yp)**2 / (4 * s))
    gp = sympy.exp(-(y + yp)**2 / (4 * s))
    wm = (y - yp) / (2 * s)
    wp = (y + yp) / (2 * s)
    dirichlet = n * (gm - gp)

    pos_branch = n * (gm * (wm + lam) + gp * (wp - lam))
    pos_target = sympy.diff(dirichlet, yp) + lam * dirichlet
    assert sympy.simplify(pos_branch - pos_target) == 0

    # negative branch, written with lam = -mu and mu > 0
    mu = sympy.symbols("mu", positive=True)
    n_neg = sympy.exp(-mu**2 * s) / sympy.sqrt(4 * sympy.pi * s)
    neg_branch = n_neg * (gm * (wm - mu) + gp * (-wp - mu)) \
        + (mu / sympy.sqrt(sympy.pi * s)) * sympy.exp(
            -mu**2 * s - (y + yp)**2 / (4 * s))
    dirichlet_neg = n_neg * (gm - gp)
    neg_target = -sympy.diff(dirichlet_neg, y) - mu * dirichlet_neg
    assert sympy.simplify(neg_branch - neg_target) == 0
