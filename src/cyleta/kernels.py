"""Closed-form per-mode heat kernels on the half line.

Separating variables along a cylindrical end turns the heat operator into a
family of one-dimensional problems indexed by the boundary eigenvalue
lambda: u_s = u_yy - lambda^2 u on (0, inf). Four kernels matter here, all
built from the Gaussian e^{-lambda^2 s} (4 pi s)^{-1/2} and its image at the
reflected point:

* free (full-line) kernel, no boundary at all,
* Dirichlet kernel (image method, difference of Gaussians),
* the mixed-condition kernel: Dirichlet for lambda > 0, and for lambda < 0
  a Neumann-type image sum plus an erfc correction coming from the boundary
  condition u'(0) + lambda u(0) = 0,
* the first-derivative combination of the mixed kernel that appears inside
  the contribution-from-infinity integrand, with its independently coded
  Dirichlet-route counterpart.

Notation used throughout the formulas: N = e^{-lambda^2 s} (4 pi s)^{-1/2},
G∓ = exp(-(y -+ y')^2 / 4s), w± = (y ± y') / (2s).

Stability note: the lambda < 0 kernels multiply e^{|lambda|(y+y')} by
erfc(large), which individually overflow and underflow for
|lambda| (y + y') beyond ~700. Both are evaluated through the scaled
function erfcx(x) = e^{x^2} erfc(x); the combined exponent collapses to
-lambda^2 s - (y+y')^2/(4s), which never overflows. The scaled form is
exact, so it is used unconditionally rather than behind a threshold.
erfcx is cyleta's own Chebyshev series (cyleta._special), not scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._special import erfcx as _erfcx
from .errors import DomainError

__all__ = [
    "ModePoint",
    "erfc_eval",
    "full_line_mode_kernel",
    "dirichlet_mode_kernel",
    "aps_mode_kernel",
    "lambda_mode_kernel",
    "dirichlet_lambda_combination",
]


def erfc_eval(x: float) -> float:
    """Complementary error function erfc(x) = (2/sqrt(pi)) int_x^inf e^{-xi^2} dxi.

    Delegates to math.erfc, the C library's scalar erfc, which meets the
    1e-14 relative-accuracy contract for |x| <= 26, satisfies
    erfc(-x) = 2 - erfc(x), and underflows smoothly to 0 for large x
    (erfc(30) is below 1e-300 in double precision). The array kernels of
    eta and the collar integrals use cyleta._special.erfc instead. NaN is
    rejected rather than propagated.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("erfc_eval: NaN input")
    return math.erfc(x)


@dataclass(frozen=True)
class ModePoint:
    """Evaluation point of a per-mode kernel: eigenvalue, heat time, two
    half-line coordinates."""

    lam: float
    s: float
    y: float
    y_prime: float

    def __post_init__(self):
        for name in ("lam", "s", "y", "y_prime"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise DomainError(f"ModePoint.{name} must be finite, got {v!r}")
        if not self.s > 0:
            raise DomainError(f"heat time s must be positive, got {self.s!r}")
        if self.y < 0 or self.y_prime < 0:
            raise DomainError("coordinates must be nonnegative")


def _gaussians(p: ModePoint) -> tuple[float, float, float]:
    """(N, G-, G+) at the point."""
    n = math.exp(-p.lam * p.lam * p.s) / math.sqrt(4.0 * math.pi * p.s)
    gm = math.exp(-((p.y - p.y_prime) ** 2) / (4.0 * p.s))
    gp = math.exp(-((p.y + p.y_prime) ** 2) / (4.0 * p.s))
    return n, gm, gp


def full_line_mode_kernel(p: ModePoint) -> float:
    """Free kernel N * G-: heat flow on the whole line, no boundary."""
    n, gm, _ = _gaussians(p)
    return n * gm


def dirichlet_mode_kernel(p: ModePoint) -> float:
    """Image-method kernel N * (G- - G+), vanishing at y = 0."""
    n, gm, gp = _gaussians(p)
    return n * (gm - gp)


def aps_mode_kernel(p: ModePoint) -> float:
    """Mixed-condition kernel: the positive and negative eigenvalue branches
    see different boundary conditions.

    lambda > 0: identical to the Dirichlet kernel. lambda < 0:
    N (G- + G+) + lambda e^{-lambda(y+y')} erfc((y+y')/(2 sqrt s) - lambda sqrt s),
    evaluated via erfcx with the combined exponent
    -lambda^2 s - (y+y')^2/(4s) (exact identity, no overflow).
    """
    if p.lam == 0.0:
        raise DomainError("mixed-condition kernel needs lam != 0")
    n, gm, gp = _gaussians(p)
    if p.lam > 0:
        return n * (gm - gp)
    sq = math.sqrt(p.s)
    z = (p.y + p.y_prime) / (2.0 * sq) - p.lam * sq
    tail = p.lam * _erfcx(z) * math.exp(
        -p.lam * p.lam * p.s - (p.y + p.y_prime) ** 2 / (4.0 * p.s))
    return n * (gm + gp) + tail


def lambda_mode_kernel(p: ModePoint) -> float:
    """Scalar coefficient of the derivative-of-projection kernel on one mode.

    lambda > 0: N [G- (w- + lambda) + G+ (w+ - lambda)].
    lambda < 0: N [G- (w- + lambda) + G+ (-w+ + lambda)]
                - (lambda / sqrt(pi s)) e^{-lambda(y+y')}
                  exp(-((y+y')/(2 sqrt s) - lambda sqrt s)^2).
    The last factor pair combines to exp(-lambda^2 s - (y+y')^2/(4s))
    exactly, which is how it is evaluated.
    """
    if p.lam == 0.0:
        raise DomainError("lambda_mode_kernel needs lam != 0")
    n, gm, gp = _gaussians(p)
    wm = (p.y - p.y_prime) / (2.0 * p.s)
    wp = (p.y + p.y_prime) / (2.0 * p.s)
    if p.lam > 0:
        return n * (gm * (wm + p.lam) + gp * (wp - p.lam))
    extra = -(p.lam / math.sqrt(math.pi * p.s)) * math.exp(
        -p.lam * p.lam * p.s - (p.y + p.y_prime) ** 2 / (4.0 * p.s))
    return n * (gm * (wm + p.lam) + gp * (-wp + p.lam)) + extra


def dirichlet_lambda_combination(p: ModePoint) -> float:
    """First-order combination of the Dirichlet kernel, branch per sign.

    For lambda > 0 this is (d/dy' + lambda) applied to the Dirichlet kernel;
    for lambda < 0 it is (-d/dy + lambda), matching the two chiralities
    +-d/dy + lambda of the mode operator. Coded from the analytic
    derivatives of the image Gaussians, independent of lambda_mode_kernel,
    so agreement between the two is a genuine two-route identity check:

        lambda > 0:  N [G- w- + G+ w+] + lambda N [G- - G+]
        lambda < 0:  N [G- w- - G+ w+] + lambda N [G- - G+]
    """
    if p.lam == 0.0:
        raise DomainError("dirichlet_lambda_combination needs lam != 0")
    n, gm, gp = _gaussians(p)
    wm = (p.y - p.y_prime) / (2.0 * p.s)
    wp = (p.y + p.y_prime) / (2.0 * p.s)
    if p.lam > 0:
        derivative = n * (gm * wm + gp * wp)
    else:
        derivative = n * (gm * wm - gp * wp)
    return derivative + p.lam * n * (gm - gp)
