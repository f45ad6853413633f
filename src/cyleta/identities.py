"""Grid verifiers for the per-mode kernel identities.

Three checks, each reporting the worst absolute deviation it saw (absolute,
not relative: these quantities legitimately pass through zero):

* decomposition: the derivative-of-projection kernel equals the
  independently coded Dirichlet-route combination at every mode point,
* boundary vanishing: that same kernel is 0 on the diagonal corner
  y = y' = 0,
* not feeling the boundary: the Dirichlet kernel differs from the free one
  by exactly a reflected Gaussian, so the deviation at y = y' decays like
  e^{-y^2/s} as s -> 0.

The default grids are compiled-in constants so reports reproduce
bit-for-bit. Verification is pure and order-independent (a max over
points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from ._json import JsonFields
from .errors import DomainError, VerificationError
from .kernels import (
    ModePoint,
    dirichlet_lambda_combination,
    dirichlet_mode_kernel,
    full_line_mode_kernel,
    lambda_mode_kernel,
)

__all__ = [
    "KernelGrid",
    "DeviationReport",
    "DECOMPOSITION_GRID",
    "BOUNDARY_GRID",
    "verify_decomposition",
    "verify_boundary_vanish",
    "verify_not_feel_boundary",
]


@dataclass(frozen=True)
class KernelGrid:
    """Cartesian evaluation grid: eigenvalues x heat times x coordinate pairs."""

    lambdas: tuple[float, ...]
    times: tuple[float, ...]
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        object.__setattr__(self, "times", tuple(float(v) for v in self.times))
        object.__setattr__(self, "coords", tuple(float(v) for v in self.coords))
        if not (self.lambdas and self.times and self.coords):
            raise DomainError("grid lists must be non-empty")
        if any(v == 0 or not math.isfinite(v) for v in self.lambdas):
            raise DomainError("grid eigenvalues must be nonzero and finite")
        if any(t <= 0 for t in self.times):
            raise DomainError("grid times must be positive")
        if any(c < 0 for c in self.coords):
            raise DomainError("grid coordinates must be nonnegative")


@dataclass(frozen=True)
class DeviationReport(JsonFields):
    max_abs: float
    argmax: tuple[float, float, float, float]
    samples: int


def _worst(deviation, points) -> DeviationReport:
    """The largest deviation(ModePoint(*point)) over the points, at the
    first point that reaches it, and the number of points."""
    worst, arg, samples = -1.0, None, 0
    for samples, point in enumerate(points, 1):
        dev = deviation(ModePoint(*point))
        if dev > worst:
            worst, arg = dev, point
    return DeviationReport(max_abs=worst, argmax=arg, samples=samples)


DECOMPOSITION_GRID = KernelGrid(
    lambdas=(-3.0, -1.0, -0.25, 0.25, 1.0, 3.0),
    times=(0.05, 0.5, 5.0),
    coords=(0.0, 0.3, 1.0, 2.0),
)

BOUNDARY_GRID = KernelGrid(
    lambdas=(-2.5, -1.0, -0.5, 0.5, 1.0, 2.5),
    times=(0.1, 1.0, 10.0),
    coords=(0.0,),
)


def verify_decomposition(grid: KernelGrid = DECOMPOSITION_GRID) -> DeviationReport:
    """Worst |lambda_mode_kernel - dirichlet_lambda_combination| over the grid.

    The two sides are independent closed forms of the same operator kernel;
    agreement to near machine precision is the per-mode decomposition
    identity.
    """
    return _worst(
        lambda p: abs(lambda_mode_kernel(p) - dirichlet_lambda_combination(p)),
        product(grid.lambdas, grid.times, grid.coords, grid.coords))


def verify_boundary_vanish(grid: KernelGrid = BOUNDARY_GRID) -> DeviationReport:
    """Worst |lambda_mode_kernel(lam, s, 0, 0)| over the grid's (lam, s) pairs.

    The kernel vanishes identically on the corner; for lam < 0 the zero is a
    cancellation between the Gaussian sum and the erfc correction, so this
    exercises real floating-point structure rather than a syntactic zero.
    """
    return _worst(lambda p: abs(lambda_mode_kernel(p)),
                  product(grid.lambdas, grid.times, (0.0,), (0.0,)))


def verify_not_feel_boundary(lam: float, y: float,
                             times: tuple[float, ...]) -> list[tuple[float, float]]:
    """Measure how fast the boundary's influence dies away from it.

    At y = y' the Dirichlet and free kernels differ by exactly
    N e^{-y^2/s} (the reflected image), so log|difference| + y^2/s must stay
    below log((4 pi s)^{-1/2}) for every s in the list. Returns the measured
    (s, log|difference|) pairs, with -inf when the subtraction underflows;
    raises VerificationError if the boundedness fails.

    times must be positive and strictly decreasing toward 0; y must be
    positive (at the boundary itself the difference is not small).
    """
    lam = float(lam)
    y = float(y)
    if lam == 0.0:
        raise DomainError("lam must be nonzero")
    if not y > 0:
        raise DomainError("y must be positive; the deviation is only small away "
                          "from the boundary")
    times = tuple(float(t) for t in times)
    if not times or any(t <= 0 for t in times):
        raise DomainError("times must be positive")
    if any(b >= a for a, b in zip(times, times[1:])):
        raise DomainError("times must be strictly decreasing")

    bound = -0.5 * math.log(4.0 * math.pi * min(times)) + 1e-9
    rows = []
    for s in times:
        p = ModePoint(lam, s, y, y)
        diff = abs(dirichlet_mode_kernel(p) - full_line_mode_kernel(p))
        log_dev = math.log(diff) if diff > 0.0 else -math.inf
        rows.append((s, log_dev))
        if log_dev + y * y / s > bound:
            raise VerificationError(
                f"boundary influence does not decay like exp(-y^2/s) at s={s:g}: "
                f"log deviation {log_dev:.6g} + y^2/s {y * y / s:.6g} exceeds {bound:.6g}",
                evidence={"s": s, "log_dev": log_dev, "bound": bound})
    return rows
