"""Independent numerical oracles used by the test suite.

Nothing in this module imports from cyleta. Each oracle reconstructs a
quantity the package computes analytically, using a different numerical
method built from generic tools (finite-difference marching, banded
solves, tridiagonal eigendecompositions, adaptive quadrature). Agreement
between a package value and its oracle therefore checks the mathematics,
not the code against itself.

Contents:

* ``cn_solve``: Crank-Nicolson heat solver on an interval with a
  Rannacher smoothing start, for whole-line, Dirichlet, and Robin
  (u'(0) + lam u(0) = 0) boundary behavior.
* ``robin_expm_corner``: boundary-corner heat kernel value from the
  eigendecomposition of the symmetrized finite-difference operator.
* ``erfc_defining_integral``: erfc evaluated by adaptive quadrature of
  its defining Gaussian integral.
* ``aps_mode_kernel``: the closed-form mixed-condition (APS) heat kernel
  on one mode, which no runtime quantity reads; the tests check it
  against ``cn_solve`` and ``robin_expm_corner``.
* ``contribution_by_double_quadrature``: brute-force double integral for
  the per-mode boundary contribution, composing two half-time image
  kernels through the semigroup identity instead of using any
  closed-form diagonal bracket.
* ``contribution_integrand``: the collapsed diagonal bracket of the
  contribution summed over a list of modes at one heat time, which the
  tests check against the per-mode kernel summed one mode at a time.
* ``heat_trace``: Tr(g e^{-s D^2} D) of a list of modes at one heat time.
* ``eta_circle_oracle``: the closed-form eta 1 - 2a of the twisted circle
  with the identity group element.
* ``eta_by_quadrature`` and ``collar_integral_by_quadrature``: the
  heat-time integrals behind eta, the contribution and its Dirichlet
  variant for a whole list of modes, by adaptive quadrature of the
  spectral sums over every heat time from a given lower limit, with no
  erfc-type antiderivative anywhere; the second can integrate the collar
  part of the bracket alone.
* ``spectral_tails``, ``dirichlet_tails``, ``collar_piece`` and
  ``dirichlet_piece``: the per-mode closed forms of the same collar
  integrals from a heat time T, and the two pieces that depend on the
  collar, every factor evaluated on every mode. A tail is eta's term,
  halved, plus half a per-mode term t: -collar_piece on lam > 0 for
  either condition, collar_piece on lam < 0 for the spectral one and
  dirichlet_piece on lam < 0 for the Dirichlet one (to a few ulp of the
  larger part). The runtime evaluates the collar factors only where they
  do not underflow. Given the runtime's own erfc and erfcx in place of
  scipy's, it must match both pieces bit for bit.
* ``per_mode_difference_by_quad`` and ``dominator_integrals_by_quad``:
  the integrals behind the vanishing verifier, by adaptive quadrature in
  s, each with quad's error estimate.
* ``closed_form_partial``: the closed-form regularized vanishing sum at
  one t, composed from collar_piece on every mode in the runtime's order
  of operations; the same bit-for-bit role as the pieces above.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.special import erfc, erfcx


def cn_solve(lam: float, s_final: float, y_eval: float, yp: float,
             bc: str = "dirichlet", y_lo: float = 0.0, y_hi: float = 20.0,
             h: float = 0.005, dt: float = 5e-4,
             smooth_steps: int = 20) -> float:
    """Heat kernel value u(s_final, y_eval) from a finite-difference march.

    Solves du/ds = (d^2/dy^2 - lam^2) u on [y_lo, y_hi] starting from a
    grid delta at yp. bc selects the behavior at y_lo: "dirichlet" and
    "free" clamp the solution to zero there (for "free", place y_lo far
    enough below the region of interest that the clamp is invisible),
    "robin" imposes u'(0) + lam u(0) = 0 through a ghost node. The far
    end is always clamped, so choose y_hi generously.

    The first smooth_steps half-steps are backward Euler (Rannacher
    smoothing); without them the delta start leaves O(1) ringing in the
    Crank-Nicolson iteration at this dt.
    """
    n_cells = int(round((y_hi - y_lo) / h))
    if bc == "robin":
        if y_lo != 0.0:
            raise ValueError("the robin oracle assumes the boundary at 0")
        ys = h * np.arange(n_cells)
    elif bc in ("dirichlet", "free"):
        ys = y_lo + h * np.arange(1, n_cells)
    else:
        raise ValueError(f"unknown bc {bc!r}")
    m = ys.size
    main = np.full(m, 2.0 / (h * h) + lam * lam)
    upper = np.full(m - 1, -1.0 / (h * h))
    lower = np.full(m - 1, -1.0 / (h * h))
    if bc == "robin":
        main[0] = (2.0 - 2.0 * h * lam) / (h * h) + lam * lam
        upper[0] = -2.0 / (h * h)

    u = np.zeros(m)
    u[int(np.argmin(np.abs(ys - yp)))] = 1.0 / h

    half = 0.5 * dt
    ab = np.zeros((3, m))
    ab[0, 1:] = half * upper
    ab[1, :] = 1.0 + half * main
    ab[2, :-1] = half * lower

    def cn_rhs(v: np.ndarray) -> np.ndarray:
        out = (1.0 - half * main) * v
        out[:-1] -= half * upper * v[1:]
        out[1:] -= half * lower * v[:-1]
        return out

    smoothing_time = smooth_steps * half
    cn_steps = round((s_final - smoothing_time) / dt)
    if not math.isclose(smoothing_time + cn_steps * dt, s_final,
                        rel_tol=1e-12):
        raise ValueError("s_final must be a whole number of steps")
    for _ in range(smooth_steps):
        u = solve_banded((1, 1), ab, u)
    for _ in range(cn_steps):
        u = solve_banded((1, 1), ab, cn_rhs(u))
    return float(np.interp(y_eval, ys, u))


def robin_expm_corner(lam: float, s: float, y_hi: float = 12.0,
                      n: int = 2400) -> float:
    """Corner value K(s; 0, 0) of the Robin heat kernel, by spectral sum.

    Discretizes -d^2/dy^2 + lam^2 with the u'(0) + lam u(0) = 0 ghost-node
    row, symmetrizes the single asymmetric off-diagonal pair, and sums the
    eigenmode expansion of the matrix exponential. The boundary node
    carries half a cell, hence the 2/h weight on the corner entry.
    """
    h = y_hi / n
    d = np.full(n, 2.0 / (h * h) + lam * lam)
    e = np.full(n - 1, -1.0 / (h * h))
    d[0] = (2.0 - 2.0 * h * lam) / (h * h) + lam * lam
    e[0] = -math.sqrt(2.0) / (h * h)
    w, q = eigh_tridiagonal(d, e)
    q0 = q[0]
    return float((q0 * np.exp(-s * w) * q0).sum() * 2.0 / h)


def erfc_defining_integral(x: float) -> float:
    """erfc(x) as (2/sqrt(pi)) times the Gaussian integral from x on."""
    val, _ = quad(lambda xi: 2.0 / math.sqrt(math.pi) * math.exp(-xi * xi),
                  x, np.inf, epsabs=1e-13)
    return val


def aps_mode_kernel(lam: float, s: float, y: float, yp: float) -> float:
    """Mixed-condition kernel: the positive and negative eigenvalue branches
    see different boundary conditions.

    lam > 0: the Dirichlet kernel N (G- - G+), with N = e^{-lam^2 s}
    (4 pi s)^{-1/2} and G-+ = exp(-(y -+ yp)^2 / 4s). lam < 0, where
    u'(0) + lam u(0) = 0:
    N (G- + G+) + lam e^{-lam(y+yp)} erfc((y+yp)/(2 sqrt s) - lam sqrt s),
    evaluated via erfcx with the combined exponent
    -lam^2 s - (y+yp)^2/(4s) (exact identity, no overflow).
    """
    if lam == 0.0:
        raise ValueError("mixed-condition kernel needs lam != 0")
    n = math.exp(-lam * lam * s) / math.sqrt(4.0 * math.pi * s)
    gm = math.exp(-((y - yp) ** 2) / (4.0 * s))
    gp = math.exp(-((y + yp) ** 2) / (4.0 * s))
    if lam > 0:
        return n * (gm - gp)
    sq = math.sqrt(s)
    z = (y + yp) / (2.0 * sq) - lam * sq
    tail = lam * float(erfcx(z)) * math.exp(
        -lam * lam * s - (y + yp) ** 2 / (4.0 * s))
    return n * (gm + gp) + tail


# ---------------------------------------------------------------------------
# Brute-force double quadrature for the per-mode contribution integrand.
# The absorbing-boundary kernel and its coordinate derivatives below are
# the elementary method-of-images expressions; everything past them is
# numerical composition, with no closed-form diagonal algebra anywhere.

def _image(lam: float, s: float, y: float, yp: float) -> float:
    n = math.exp(-lam * lam * s) / math.sqrt(4.0 * math.pi * s)
    return n * (math.exp(-(y - yp) ** 2 / (4.0 * s))
                - math.exp(-(y + yp) ** 2 / (4.0 * s)))


def _image_dfirst(lam: float, s: float, y: float, yp: float) -> float:
    n = math.exp(-lam * lam * s) / math.sqrt(4.0 * math.pi * s)
    gm = math.exp(-(y - yp) ** 2 / (4.0 * s))
    gp = math.exp(-(y + yp) ** 2 / (4.0 * s))
    return n * (-gm * (y - yp) / (2.0 * s) + gp * (y + yp) / (2.0 * s))


def _image_dsecond(lam: float, s: float, y: float, yp: float) -> float:
    n = math.exp(-lam * lam * s) / math.sqrt(4.0 * math.pi * s)
    gm = math.exp(-(y - yp) ** 2 / (4.0 * s))
    gp = math.exp(-(y + yp) ** 2 / (4.0 * s))
    return n * (gm * (y - yp) / (2.0 * s) + gp * (y + yp) / (2.0 * s))


def composed_lambda_diagonal(lam: float, a: float, s: float,
                             derivative: str = "second") -> float:
    """Diagonal first-order kernel value at (a, a) by semigroup composition.

    Splits heat time s in two and composes the half-time image kernels
    numerically, applying (d/dy' + lam) to the right factor
    (derivative="second") or (-d/dy + lam) to the left factor
    (derivative="first"). The inner integrand is a near-delta spike of
    width ~sqrt(s) around z = a, so the quadrature window is centered
    there; the window always reaches down to 0 before the reflection
    terms can matter.
    """
    half = s / 2.0
    w = 30.0 * math.sqrt(s)
    lo = max(0.0, a - w)
    hi = a + w
    if derivative == "second":
        def inner(z: float) -> float:
            return _image(lam, half, a, z) * (
                _image_dsecond(lam, half, z, a) + lam * _image(lam, half, z, a))
    elif derivative == "first":
        def inner(z: float) -> float:
            return (-_image_dfirst(lam, half, a, z)
                    + lam * _image(lam, half, a, z)) * _image(lam, half, z, a)
    else:
        raise ValueError(f"unknown derivative side {derivative!r}")
    val, _ = quad(inner, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def contribution_by_double_quadrature(lam: float, a_prime: float,
                                      derivative: str = "second") -> float:
    """Per-mode contribution -int_0^inf (composed diagonal) ds.

    The outer integral runs in u = sqrt(s) to tame the endpoint and is
    truncated at lam^2 s = 40, where the integrand is below 4e-18. The
    achieved accuracy is checked against exactly known per-mode values in
    the tests that use this oracle; the roundoff warning quad emits while
    polishing an already-converged result is not informative, so it is
    silenced here.
    """
    u_max = math.sqrt(40.0) / abs(lam)

    def outer(u: float) -> float:
        if u <= 0.0:
            return 2.0 * lam / math.sqrt(4.0 * math.pi)
        return 2.0 * u * composed_lambda_diagonal(lam, a_prime, u * u,
                                                  derivative)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(outer, 0.0, u_max, epsabs=1e-11, epsrel=1e-10,
                      limit=300)
    return -val


# ---------------------------------------------------------------------------
# Heat-time integrals of whole spectral sums by adaptive quadrature. The
# integrals run in u = sqrt(s), which removes the s^{-1/2} endpoint
# singularity, from sqrt(s_lo) to the point where every mode's Gaussian
# e^{-lam^2 u^2} is below e^{-50}; each mode's remainder beyond it is below
# erfc(sqrt(50)) < 1e-22 and is dropped. The interval is cut at the
# dyadic multiples of 1/max|lam|, so every mode's scale sees its own
# pieces, and each piece gets a quad call of its own. A single call over
# the whole range, with the cuts as breakpoints, must meet its tolerance
# on a total whose pieces cancel, and reports roundoff on spectra such as
# lams [1, -2, -3, -4, 5].

_OUTER_EXPONENT = 50.0


def _quad_complex(f, lo: float, hi: float, points) -> tuple[complex, float]:
    """int_lo^hi f(u) du, one quad call per piece between the points."""
    edges = [lo, *points, hi]
    value, error = 0j, 0.0
    for a, b in zip(edges, edges[1:]):
        for unit, part in ((1.0, lambda u: f(u).real),
                           (1j, lambda u: f(u).imag)):
            val, err = quad(part, a, b, epsabs=1e-14, epsrel=1e-12,
                            limit=2000)
            value += unit * val
            error += err
    return value, error


def _u_range(lams: np.ndarray, s_lo: float):
    abs_l = np.abs(lams)
    lo = math.sqrt(s_lo)
    hi = math.sqrt(_OUTER_EXPONENT) / float(abs_l.min())
    points = []
    u = 1.0 / float(abs_l.max())
    while u < hi:
        if u > lo:
            points.append(u)
        u *= 2.0
    return lo, max(hi, 2.0 * lo), points


def heat_trace(lams, traces, s: float) -> complex:
    """Tr(g e^{-s D^2} D) = sum_j a_j lam_j e^{-s lam_j^2}."""
    if not s > 0:
        raise ValueError(f"heat time must be positive, got {s!r}")
    lams = np.asarray(lams, dtype=float)
    return complex((np.asarray(traces) * (lams * np.exp(-s * lams * lams))).sum())


def eta_circle_oracle(twist: float) -> float:
    """Closed form for the twisted circle with identity group element: 1 - 2 twist.

    Comes from zeta-regularizing sum sgn(n + a) |n + a|^{-z} at z = 0 with
    the Hurwitz values zeta_H(0, a) = 1/2 - a and the reflection a <-> 1 - a;
    the acceptance suite re-derives it from an independent Hurwitz-zeta
    evaluation.
    """
    twist = float(twist)
    if not (0.0 < twist < 1.0):
        raise ValueError(f"twist must lie in (0, 1), got {twist!r}")
    return 1.0 - 2.0 * twist


def eta_by_quadrature(lams, traces, s_lo: float = 0.0
                      ) -> tuple[complex, float]:
    """(1/sqrt(pi)) int_{s_lo}^inf sum_j a_j lam_j e^{-lam_j^2 s} s^{-1/2} ds.

    Returns (value, quadrature error estimate).
    """
    lams = np.asarray(lams, dtype=float)
    traces = np.asarray(traces, dtype=complex)
    weights = traces * lams

    def integrand(u: float) -> complex:
        return 2.0 / math.sqrt(math.pi) * complex(
            (weights * np.exp(-lams * lams * u * u)).sum())

    lo, hi, points = _u_range(lams, s_lo)
    return _quad_complex(integrand, lo, hi, points)


def collar_integral_by_quadrature(lams, traces, a_prime: float,
                                  s_lo: float = 0.0, dirichlet: bool = False,
                                  collar_only: bool = False
                                  ) -> tuple[complex, float]:
    """int_{s_lo}^inf of the diagonal collar bracket summed over the modes.

    The bracket is e^{-lam^2 s} (4 pi s)^{-1/2} [lam + e^{-a'^2/s} (c a'/s
    - |lam|) sgn(lam)] with c = 1 for the spectral condition and
    c = sgn(lam) for the Dirichlet condition; the contribution is minus
    this integral. collar_only drops the leading lam, which leaves the
    collar part: its spectral form integrates to 0 per mode from s_lo = 0.
    Returns (value, quadrature error estimate).
    """
    lams = np.asarray(lams, dtype=float)
    traces = np.asarray(traces, dtype=complex)
    sgn = np.sign(lams)
    abs_l = np.abs(lams)
    c = sgn if dirichlet else np.ones_like(lams)
    lead = np.zeros_like(lams) if collar_only else lams

    def integrand(u: float) -> complex:
        s = u * u
        if s == 0.0:
            return complex((traces * lead).sum()) / math.sqrt(math.pi)
        damp = math.exp(-a_prime * a_prime / s)
        bracket = lead + sgn * damp * (c * a_prime / s - abs_l)
        return 2.0 * u / math.sqrt(4.0 * math.pi * s) * complex(
            (traces * np.exp(-lams * lams * s) * bracket).sum())

    lo, hi, points = _u_range(lams, s_lo)
    return _quad_complex(integrand, lo, hi, points)


def contribution_integrand(lams, traces, a_prime: float, s: float
                           ) -> complex:
    """sum_j a_j e^{-lam_j^2 s} (4 pi s)^{-1/2} [lam_j + sgn(lam_j)
    e^{-a'^2/s} (a'/s - |lam_j|)] at heat time s.

    On the diagonal y = y' = a' this collapsed bracket is algebraically
    sum_j a_j K(lam_j, s, a', a'), with K the first-order mode kernel; it
    is the integrand whose per-mode heat-time integrals the contribution
    evaluates in closed form.
    """
    lams, traces = np.asarray(lams), np.asarray(traces)
    expo = -(a_prime * a_prime) / s
    damp = math.exp(expo) if expo > -745.0 else 0.0
    bracket = lams + np.sign(lams) * damp * (a_prime / s - np.abs(lams))
    norm = 1.0 / math.sqrt(4.0 * math.pi * s)
    return complex((traces * np.exp(-s * lams * lams) * bracket).sum() * norm)


def spectral_tails(lams, a_prime: float, T: float, erfc=erfc,
                   erfcx=erfcx) -> np.ndarray:
    """Per-mode int_T^inf of the spectral-condition diagonal, in closed form.

    For each mode: sgn(lam) [erfc(|lam| sqrt(T))
    - erfcx(|lam| sqrt(T) + a'/sqrt(T)) e^{-lam^2 T - a'^2/T}] / 2, with
    the given erfc and erfcx, scipy's by default.
    """
    abs_l = np.abs(lams)
    sqrt_T = math.sqrt(T)
    z_plus = abs_l * sqrt_T + a_prime / sqrt_T
    expo = -(lams * lams) * T - (a_prime * a_prime) / T
    return np.sign(lams) * 0.5 * (erfc(abs_l * sqrt_T)
                                  - erfcx(z_plus) * np.exp(expo))


def collar_piece(lams, a_prime: float, T: float,
                 erfcx=erfcx) -> np.ndarray:
    """Per-mode erfcx(|lam| sqrt(T) + a'/sqrt(T)) e^{-lam^2 T - a'^2/T} on
    every mode, the collar part of spectral_tails: each tail is
    sgn(lam) [erfc(|lam| sqrt(T)) - piece] / 2. erfcx is scipy's unless
    another is given."""
    sqrt_T = math.sqrt(T)
    expo = -(lams * lams) * T - (a_prime * a_prime) / T
    return erfcx(np.abs(lams) * sqrt_T + a_prime / sqrt_T) * np.exp(expo)


def dirichlet_tails(lams, a_prime: float, T: float, erfc=erfc,
                    erfcx=erfcx) -> np.ndarray:
    """Per-mode int_T^inf of the Dirichlet-condition diagonal, in closed form.

    lam > 0 modes match the spectral-condition tail. On lam < 0 the
    primitive involves erfcx(|lam| sqrt(s) - a'/sqrt(s)); when that
    argument is negative the e^{-2 a' |lam|} (2 - erfc(...)) form is used.
    erfc and erfcx are scipy's unless others are given.
    """
    abs_l = np.abs(lams)
    sqrt_T = math.sqrt(T)
    expo = np.exp(-(lams * lams) * T - (a_prime * a_prime) / T)
    erfc_T = erfc(abs_l * sqrt_T)

    pos = 0.5 * (erfc_T - erfcx(abs_l * sqrt_T + a_prime / sqrt_T) * expo)

    v = abs_l * sqrt_T - a_prime / sqrt_T
    safe_v = np.where(v >= 0.0, v, 0.0)
    branch_pos_v = 0.5 * erfcx(safe_v) * expo
    branch_neg_v = 0.5 * np.exp(-2.0 * a_prime * abs_l) * (2.0 - erfc(-v))
    neg = -0.5 * erfc_T + np.where(v >= 0.0, branch_pos_v, branch_neg_v)

    return np.where(lams > 0.0, pos, neg)


def dirichlet_piece(lams, a_prime: float, T: float | None,
                    erfc=erfc) -> np.ndarray:
    """Per-mode e^{-2 a' |lam|} erfc(|lam| sqrt(T) - a'/sqrt(T)) on every
    mode, or its T -> 0 limit 2 e^{-2 a' |lam|} when T is None: the
    Dirichlet part of dirichlet_tails, each lam < 0 tail being
    [piece - erfc(|lam| sqrt(T))] / 2. erfc is scipy's unless another is
    given."""
    abs_l = np.abs(np.asarray(lams, dtype=float))
    damp = np.exp(-2.0 * a_prime * abs_l)
    if T is None:
        return 2.0 * damp
    sqrt_T = math.sqrt(T)
    return damp * erfc(abs_l * sqrt_T - a_prime / sqrt_T)


# ---------------------------------------------------------------------------
# The vanishing verifier's integrals by adaptive quadrature in s, on the
# kernel k(s) = e^{-lam^2 s - a'^2/s} s^{-1/2}.

def _k_quad(lam2: float, a2: float, lo: float, hi: float
            ) -> tuple[float, float]:
    def k(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -lam2 * s - a2 / s
        return math.exp(expo) / math.sqrt(s) if expo > -745.0 else 0.0

    return quad(k, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=500)


def per_mode_difference_by_quad(lam: float, a_prime: float, t: float
                                ) -> tuple[float, float]:
    """d(t, lam) = int_0^{a'^2/(lam^2 t)} k ds - int_t^inf k ds.

    The second integral stops at X = max(40/lam^2, 2t); what it drops is
    at most sqrt(pi)/|lam| erfc(|lam| sqrt(X)), which joins the error.
    Returns (value, error estimate).
    """
    lam2, a2 = lam * lam, a_prime * a_prime
    first, first_err = _k_quad(lam2, a2, 0.0, a2 / (lam2 * t))
    x_cut = max(40.0 / lam2, 2.0 * t)
    second, second_err = _k_quad(lam2, a2, t, x_cut)
    dropped = math.sqrt(math.pi) / abs(lam) * float(
        erfc(abs(lam) * math.sqrt(x_cut)))
    return first - second, first_err + second_err + dropped


def dominator_integrals_by_quad(t: float, abs_lambda: float, a_prime: float
                                ) -> tuple[tuple[float, float],
                                           tuple[float, float]]:
    """int_0^t e^{-a'^2/s} s^{-1} (1 - a'/(|lam| s))^2 ds and
    int_0^1 e^{-a'^2/s} s^{-1/2} ds, as ((values), (error estimates))."""
    a2 = a_prime * a_prime

    def inner(s: float) -> float:
        if s <= 0.0 or a2 / s > 745.0:
            return 0.0
        return math.exp(-a2 / s) / s * (1.0 - a_prime / (abs_lambda * s)) ** 2

    def head(s: float) -> float:
        if s <= 0.0 or a2 / s > 745.0:
            return 0.0
        return math.exp(-a2 / s) / math.sqrt(s)

    (v1, e1), (v2, e2) = (quad(f, 0.0, hi, epsabs=1e-14, epsrel=1e-12,
                               limit=500)
                          for f, hi in ((inner, t), (head, 1.0)))
    return (v1, v2), (e1, e2)


def closed_form_partial(lams, traces, a_prime: float, t: float,
                        erfcx=erfcx) -> complex:
    """sum_j lam_j a_j d(t, lam_j) from the closed form of d.

    lam d(t, lam) = -sqrt(pi) sgn(lam) collar_piece(lam, a', t), with the
    given erfcx, scipy's by default.
    """
    terms = traces * (-math.sqrt(math.pi)) * np.sign(lams) \
        * collar_piece(lams, a_prime, t, erfcx)
    return complex(terms.sum())
