"""Per-mode half-line heat kernels and grid checks of their identities.

Separating variables along a cylindrical end turns the heat operator into a
family of one-dimensional problems indexed by the boundary eigenvalue
lambda: u_s = u_yy - lambda^2 u on (0, inf). The checks below read four
closed-form kernels, all built from the Gaussian e^{-lambda^2 s}
(4 pi s)^{-1/2} and its image at the reflected point: the free
(full-line) kernel, the Dirichlet kernel (image method), the first-order
kernel whose heat-time integral is the contribution from infinity, and
its independently coded Dirichlet-route counterpart. Each is a private
function of plain floats (lam, s, y, y_prime).

Notation used throughout the formulas: N = e^{-lambda^2 s} (4 pi s)^{-1/2},
G∓ = exp(-(y -+ y')^2 / 4s), w± = (y ± y') / (2s).

Stability note: for lambda < 0 the first-order kernel multiplies
e^{|lambda|(y+y')} by exp(-(large)^2); the product is evaluated through
the combined exponent -lambda^2 s - (y+y')^2/(4s), which never
overflows.

Three checks, each reporting the worst absolute deviation it saw (absolute,
not relative: these quantities legitimately pass through zero):

* decomposition: the first-order kernel equals the Dirichlet-route
  combination at every point of a compiled-in grid,
* boundary vanishing: that same kernel is 0 on the diagonal corner
  y = y' = 0,
* not feeling the boundary: the Dirichlet kernel differs from the free one
  by exactly a reflected Gaussian, so the deviation at y = y' decays like
  e^{-y^2/s} as s -> 0.

The grids are compiled-in constants so reports reproduce bit-for-bit.
Verification is pure and order-independent (a max over points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from ._json import JsonFields
from .errors import DomainError, VerificationError

__all__ = [
    "DeviationReport",
    "verify_decomposition",
    "verify_boundary_vanish",
    "verify_not_feel_boundary",
]

# (eigenvalues, heat times, coordinates) of the decomposition check and
# (eigenvalues, heat times) of the boundary check, whose coordinates are 0
_DECOMPOSITION_GRID = ((-3.0, -1.0, -0.25, 0.25, 1.0, 3.0),
                       (0.05, 0.5, 5.0),
                       (0.0, 0.3, 1.0, 2.0))
_BOUNDARY_GRID = ((-2.5, -1.0, -0.5, 0.5, 1.0, 2.5), (0.1, 1.0, 10.0))


def _gaussians(lam: float, s: float, y: float,
               y_prime: float) -> tuple[float, float, float]:
    """(N, G-, G+) at the point."""
    n = math.exp(-lam * lam * s) / math.sqrt(4.0 * math.pi * s)
    gm = math.exp(-((y - y_prime) ** 2) / (4.0 * s))
    gp = math.exp(-((y + y_prime) ** 2) / (4.0 * s))
    return n, gm, gp


def _full_line_kernel(lam: float, s: float, y: float, y_prime: float) -> float:
    """Free kernel N * G-: heat flow on the whole line, no boundary."""
    n, gm, _ = _gaussians(lam, s, y, y_prime)
    return n * gm


def _dirichlet_kernel(lam: float, s: float, y: float, y_prime: float) -> float:
    """Image-method kernel N * (G- - G+), vanishing at y = 0."""
    n, gm, gp = _gaussians(lam, s, y, y_prime)
    return n * (gm - gp)


def _lambda_kernel(lam: float, s: float, y: float, y_prime: float) -> float:
    """Scalar coefficient of the derivative-of-projection kernel on one mode.

    lambda > 0: N [G- (w- + lambda) + G+ (w+ - lambda)].
    lambda < 0: N [G- (w- + lambda) + G+ (-w+ + lambda)]
                - (lambda / sqrt(pi s)) e^{-lambda(y+y')}
                  exp(-((y+y')/(2 sqrt s) - lambda sqrt s)^2).
    The last factor pair combines to exp(-lambda^2 s - (y+y')^2/(4s))
    exactly, which is how it is evaluated.
    """
    if lam == 0.0:
        raise DomainError("the first-order kernel needs lam != 0")
    n, gm, gp = _gaussians(lam, s, y, y_prime)
    wm = (y - y_prime) / (2.0 * s)
    wp = (y + y_prime) / (2.0 * s)
    if lam > 0:
        return n * (gm * (wm + lam) + gp * (wp - lam))
    extra = -(lam / math.sqrt(math.pi * s)) * math.exp(
        -lam * lam * s - (y + y_prime) ** 2 / (4.0 * s))
    return n * (gm * (wm + lam) + gp * (-wp + lam)) + extra


def _dirichlet_lambda_combination(lam: float, s: float, y: float,
                                  y_prime: float) -> float:
    """First-order combination of the Dirichlet kernel, branch per sign.

    For lambda > 0 this is (d/dy' + lambda) applied to the Dirichlet kernel;
    for lambda < 0 it is (-d/dy + lambda), matching the two chiralities
    +-d/dy + lambda of the mode operator. Coded from the analytic
    derivatives of the image Gaussians, independent of _lambda_kernel,
    so agreement between the two is a genuine two-route identity check:

        lambda > 0:  N [G- w- + G+ w+] + lambda N [G- - G+]
        lambda < 0:  N [G- w- - G+ w+] + lambda N [G- - G+]
    """
    if lam == 0.0:
        raise DomainError("the Dirichlet-route combination needs lam != 0")
    n, gm, gp = _gaussians(lam, s, y, y_prime)
    wm = (y - y_prime) / (2.0 * s)
    wp = (y + y_prime) / (2.0 * s)
    if lam > 0:
        derivative = n * (gm * wm + gp * wp)
    else:
        derivative = n * (gm * wm - gp * wp)
    return derivative + lam * n * (gm - gp)


@dataclass(frozen=True)
class DeviationReport(JsonFields):
    max_abs: float
    argmax: tuple[float, float, float, float]
    samples: int


def _worst(deviation, points) -> DeviationReport:
    """The largest deviation(*point) over the points, at the first point
    that reaches it, and the number of points."""
    worst, arg, samples = -1.0, None, 0
    for samples, point in enumerate(points, 1):
        dev = deviation(*point)
        if dev > worst:
            worst, arg = dev, point
    return DeviationReport(max_abs=worst, argmax=arg, samples=samples)


def verify_decomposition() -> DeviationReport:
    """Worst |first-order kernel - Dirichlet-route combination| over the
    (lam, s, y, y') points of the compiled-in grid, 288 in all.

    The two sides are independent closed forms of the same operator kernel;
    agreement to near machine precision is the per-mode decomposition
    identity.
    """
    lambdas, times, coords = _DECOMPOSITION_GRID
    return _worst(
        lambda *p: abs(_lambda_kernel(*p) - _dirichlet_lambda_combination(*p)),
        product(lambdas, times, coords, coords))


def verify_boundary_vanish() -> DeviationReport:
    """Worst |first-order kernel at (lam, s, 0, 0)| over the compiled-in
    (lam, s) pairs.

    The kernel vanishes identically on the corner; for lam < 0 the zero is a
    cancellation between the Gaussian sum and the exponential correction,
    so this exercises real floating-point structure rather than a syntactic
    zero.
    """
    return _worst(lambda *p: abs(_lambda_kernel(*p)),
                  product(*_BOUNDARY_GRID, (0.0,), (0.0,)))


def verify_not_feel_boundary(lam: float, y: float,
                             times: tuple[float, ...]) -> list[tuple[float, float]]:
    """Measure how fast the boundary's influence dies away from it.

    At y = y' the Dirichlet and free kernels differ by exactly
    N e^{-y^2/s} (the reflected image), so log|difference| + y^2/s must stay
    below log((4 pi s)^{-1/2}) for every s in the list. Returns the measured
    (s, log|difference|) pairs, with -inf when the subtraction underflows;
    raises VerificationError if the boundedness fails.

    lam, y and times must be finite; times must be positive and strictly
    decreasing toward 0; y must be positive (at the boundary itself the
    difference is not small).
    """
    lam = float(lam)
    y = float(y)
    times = tuple(float(t) for t in times)
    if not all(map(math.isfinite, (lam, y, *times))):
        raise DomainError(f"lam, y and times must be finite, got lam={lam!r}, "
                          f"y={y!r}, times={times!r}")
    if lam == 0.0:
        raise DomainError("lam must be nonzero")
    if not y > 0:
        raise DomainError("y must be positive; the deviation is only small away "
                          "from the boundary")
    if not times or any(t <= 0 for t in times):
        raise DomainError("times must be positive")
    if any(b >= a for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly decreasing")

    bound = -0.5 * math.log(4.0 * math.pi * min(times)) + 1e-9
    rows = []
    for s in times:
        diff = abs(_dirichlet_kernel(lam, s, y, y) - _full_line_kernel(lam, s, y, y))
        log_dev = math.log(diff) if diff > 0.0 else -math.inf
        rows.append((s, log_dev))
        if log_dev + y * y / s > bound:
            raise VerificationError(
                f"boundary influence does not decay like exp(-y^2/s) at s={s:g}: "
                f"log deviation {log_dev:.6g} + y^2/s {y * y / s:.6g} exceeds {bound:.6g}",
                evidence={"s": s, "log_dev": log_dev, "bound": bound})
    return rows
