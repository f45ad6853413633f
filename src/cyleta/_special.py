"""erfcx, erfc and the regularized upper incomplete gamma function Q(a, y).

These are the only special functions the runtime needs, so cyleta carries
its own rather than importing scipy.special on every start.

erfcx(x) = e^{x^2} erfc(x) is Schonfelder's Chebyshev series (Math. Comp.
32, 1978): for x >= 0, (1 + 2x) erfcx(x) is a smooth function of
t = (x - K)/(x + K), which maps [0, inf] onto [-1, 1], and its degree-22
Chebyshev sum in t is exact to double precision. The table comes from
mpmath at 40 digits; tools/erfcx_coefficients.py regenerates and checks
it. For x < 0, erfcx(x) = 2 e^{x^2} - erfcx(-x).

erfc(x) = erfcx(|x|) e^{-x^2}, with erfc(-x) = 2 - erfc(x). The square is
split into two doubles, x^2 = hi + lo exactly (Dekker 1971), and
e^{-x^2} is taken as e^{-hi} (1 - lo), so the rounding of x^2 does not
cost a relative error of x^2 eps; likewise e^{x^2} for erfcx(x < 0).

gammaincc is a scalar Q(a, y) = Gamma(a, y)/Gamma(a): the power series
of P = 1 - Q below y = a + 1, and the Lentz continued fraction of Q
above it (Numerical Recipes, 3rd ed., 6.2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfcx", "erfc", "gammaincc"]

_ERFCX_K = 3.75
_ERFCX_SERIES = (
    1.1775789345674017,
    -0.004590054580646478,
    -0.08424913336651792,
    0.05920993999819189,
    -0.026658668435305753,
    0.009074997670705265,
    -0.002413163540417608,
    0.0004907758365258086,
    -6.916973302501207e-05,
    4.13902798607301e-06,
    7.74038306619849e-07,
    -2.1886401049234397e-07,
    1.076499946567091e-08,
    4.521959811218287e-09,
    -7.754400208831351e-10,
    -6.318088340886684e-11,
    2.86879501093067e-11,
    1.9455868545777347e-13,
    -9.65469674843344e-13,
    3.25254814814874e-14,
    3.3478119482868056e-14,
    -1.864562880419313e-15,
    -1.2507950530688648e-15,
)

# Veltkamp's splitter for doubles, 2^27 + 1.
_SPLIT = 134217729.0

# e^{x^2} overflows and e^{-x^2} underflows past this |x|, and 2 e^{x^2}
# and erfc(|x|) do as well.
_EXP_LIMIT = 28.0

_EPS = 2.0 ** -53
_TINY = 1e-300
_MAX_TERMS = 100_000


def _series(x: np.ndarray) -> np.ndarray:
    """erfcx on x >= 0, inf included, by Clenshaw's recurrence in t.

    2t = 2 - 4K/(x + K) is exactly twice t = 1 - 2K/(x + K), which is
    exactly 1 at x = inf.
    """
    two_t = 2.0 - (4.0 * _ERFCX_K) / (x + _ERFCX_K)
    b1, b2 = _ERFCX_SERIES[-1], 0.0
    for c in _ERFCX_SERIES[-2:0:-1]:
        b1, b2 = two_t * b1 - b2 + c, b1
    return 0.5 * (0.5 * two_t * b1 - b2 + _ERFCX_SERIES[0]) / (x + 0.5)


def _exp_square(x: np.ndarray, sign: float) -> np.ndarray:
    """e^{sign x^2} for |x| <= _EXP_LIMIT, with x^2 = hi + lo split
    exactly (Dekker's product): e^{sign hi} (1 + sign lo)."""
    hi = x * x
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
    return np.exp(sign * hi) * (1.0 + sign * lo)


def erfcx(x):
    """The scaled complementary error function e^{x^2} erfc(x),
    elementwise on every point of x at once; inf below about -26.6."""
    x = np.asarray(x, dtype=np.float64)
    y = _series(np.abs(x))
    neg = x < 0.0
    if neg.any():
        with np.errstate(over="ignore"):
            y = np.where(neg, 2.0 * _exp_square(
                np.clip(x, -_EXP_LIMIT, 0.0), 1.0) - y, y)
    return y[()]


def erfc(x):
    """The complementary error function, elementwise on every point of x
    at once."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    y = _series(a) * _exp_square(np.minimum(a, _EXP_LIMIT), -1.0)
    return np.where(x < 0.0, 2.0 - y, y)[()]


def gammaincc(a: float, y: float) -> float:
    """Q(a, y) = Gamma(a, y)/Gamma(a) for a > 0 and y >= 0."""
    if y == 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    scale = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= y / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                return 1.0 - total * scale
    else:
        b = y + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for n in range(1, _MAX_TERMS):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            d = _TINY if abs(d) < _TINY else d
            c = b + an / c
            c = _TINY if abs(c) < _TINY else c
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return h * scale
    raise ArithmeticError(f"gammaincc({a!r}, {y!r}) did not converge")
