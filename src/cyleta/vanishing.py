"""The vanishing integral V(a') and its dominated-convergence machinery.

V(a') = int_0^inf sum_j sgn(lam_j) a_j e^{-lam_j^2 s} e^{-a'^2/s} s^{-1/2}
(a'/s - |lam_j|) ds is zero: each mode's integral vanishes in the limit of
the regularized lower endpoint t -> 0. The raw integrand suffers large
cancellation near s = a'/|lam|, so evaluation goes through the per-mode
difference form

    d(t, lam) = int_0^{a'^2/(lam^2 t)} k ds - int_t^inf k ds,
    k(s) = e^{-lam^2 s} e^{-a'^2/s} s^{-1/2},

whose substitution s -> a'^2/(lam^2 s) folds the a'/s part of the original
integrand onto the |lam| part. The regularized sum at level t is
sum_j lam_j a_j d(t, lam_j), and V is its t -> 0 limit.

Because V is exactly zero, the runtime never evaluates it: contribution()
reports a vanishing residual of exactly 0. Two independent routes are kept
here to verify that:

* vanishing_term_detailed uses the closed form of each d(t, lam), namely
  -(sqrt(pi)/|lam|) erfcx(|lam| sqrt(t) + a'/sqrt(t)) e^{-lam^2 t - a'^2/t},
  on a dyadic t-sequence that runs until every term underflows;
* verify_vanishing and per_mode_difference evaluate the two integrals by
  quadrature, so they can certify the closed-form route. The rule is
  Gauss-Legendre in u = ln s, where k becomes a smooth bump that decays
  double-exponentially at both ends; the range is cut where the exponent
  of k falls below -746 and k is an exact 0. The rule runs at two orders,
  and their difference plus a roundoff floor is each integral's error.
  It uses numpy alone and none of the closed form it checks.

The dominator f(t, |lam|) packages the explicit bounds that justify
exchanging the limit with the spectral sum: |d(t, lam)| is dominated by
f(t, |lam|) e^{-a' |lam| / 2} uniformly in t in (0, 1], and the dominated
series is summable over any admissible spectrum.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._json import JsonFields
from .contribution import (_UNDERFLOW, _check_a_prime, _collar_damping,
                           _collar_piece)
from .errors import DomainError
from .spectral import BoundarySpectrum

__all__ = [
    "VanishingTermConfig",
    "VanishingReport",
    "vanishing_term_detailed",
    "per_mode_difference",
    "dominator",
    "verify_vanishing",
]

_SQRT_PI = math.sqrt(math.pi)

# Terms of the regularized sum whose analytic envelope falls below this
# fraction of the spectrum scale are skipped in the quadrature route.
_NEGLIGIBLE = 1e-30

# The two Gauss-Legendre orders of the quadrature route; their difference
# estimates each integral's error.
_ORDERS = (48, 96)

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# dominator's domain: |lam| a' at least _SMALLEST_LAM_COLLAR keeps every
# sample of f1's integral (about 4e8 / (|lam| a')^2, times the rule's
# half-width and 1 + |exponent|) below 1e306, and a' at least
# _SMALLEST_COLLAR keeps a'^2 a normal double and t/a'^2 finite.
_SMALLEST_LAM_COLLAR = 1e-145
_SMALLEST_COLLAR = 1e-150

# The quadrature route's domain: |lam| at least _SMALLEST_LAM keeps lam^2 a
# normal double and the end _UNDERFLOW/lam^2 of its range finite.
_SMALLEST_LAM = 1e-150


@dataclass(frozen=True)
class VanishingTermConfig:
    """Regularization schedule for the vanishing-sum verifier.

    t_sequence holds the decreasing regularization times in (0, 1];
    cutoff_rank is where the summability certificate samples the dominated
    series.
    """

    a_prime: float
    t_sequence: tuple[float, ...] = (0.5, 0.1, 0.02)
    cutoff_rank: int = 10_000

    def __post_init__(self) -> None:
        _check_a_prime(self.a_prime)
        seq = tuple(float(t) for t in self.t_sequence)
        if not seq:
            raise DomainError("t_sequence must be non-empty")
        for t in seq:
            if not (math.isfinite(t) and 0.0 < t <= 1.0):
                raise DomainError(
                    f"t_sequence entries must lie in (0, 1], got {t!r}")
        if not all(a > b for a, b in zip(seq, seq[1:])):
            raise DomainError("t_sequence must be strictly decreasing")
        object.__setattr__(self, "t_sequence", seq)
        if not (isinstance(self.cutoff_rank, int)
                and not isinstance(self.cutoff_rank, bool)
                and self.cutoff_rank > 0):
            raise DomainError(
                f"cutoff_rank must be a positive integer, got {self.cutoff_rank!r}")


def _closed_form_partial(lams: np.ndarray, traces: np.ndarray,
                         a_prime: float, t: float) -> complex:
    """sum_j lam_j a_j d(t, lam_j) via the closed form of d.

    lam * d(t, lam) = -sqrt(pi) sgn(lam) times the collar piece
    erfcx(|lam| sqrt(t) + a'/sqrt(t)) e^{-lam^2 t - a'^2 / t} of the
    contribution at heat time t; the erfcx form never overflows and the
    combined exponent is exact, so this is accurate for every mode at every
    t. The piece lives only on the prefix of modes whose exponent stays
    above -_UNDERFLOW (one bisection); every later term is an exact 0
    and is summed as one, so the sum is the full-array evaluation's bit for
    bit.
    """
    piece = _collar_piece(lams, a_prime, t)
    n = piece.size
    terms = traces[:n] * (-_SQRT_PI) * np.sign(lams[:n]) * piece
    return complex(np.concatenate([terms, np.zeros(lams.size - n)]).sum())


class VanishingEvaluation(NamedTuple):
    """V(a') from the closed-form route, with its error bound and partials."""

    value: complex
    est_error: float
    partials: tuple[complex, ...]


def vanishing_term_detailed(spectrum: BoundarySpectrum, a_prime: float,
                            ) -> VanishingEvaluation:
    """Evaluate V(a') by the closed form and keep the partial sums.

    The regularized sums are taken on the dyadic sequence t = 2^{-k}; they
    collapse superexponentially (each term carries e^{-a'^2/t}). The
    sequence runs until a'^2/t exceeds _UNDERFLOW, where every term
    underflows to an exact 0, and stops after two exact zeros in a row, so
    the value is the last partial. Every partial at t obeys
    |p| <= sqrt(pi) sum_j |a_j| e^{-a'^2/t}, since erfcx <= 1 on the
    nonnegative axis; that bound at the last t is the error estimate.
    """
    a_prime = _check_a_prime(a_prime)
    if not spectrum.gap > 0:
        raise DomainError("spectrum gap must be positive")
    lams, traces = spectrum.lams, spectrum.traces
    # first k with a'^2 2^k > _UNDERFLOW, one more level for the second zero
    last = max(2, math.ceil(math.log2(_UNDERFLOW / (a_prime * a_prime))) + 1)

    partials: list[complex] = []
    zeros_in_a_row = 0
    for k in range(0, last + 1):
        t = 2.0 ** (-k)
        p = _closed_form_partial(lams, traces, a_prime, t)
        partials.append(p)
        zeros_in_a_row = zeros_in_a_row + 1 if p == 0.0 else 0
        if zeros_in_a_row >= 2 and len(partials) >= 3:
            break

    bound = _SQRT_PI * float(np.abs(traces).sum()) \
        * math.exp(-a_prime * a_prime / t)
    return VanishingEvaluation(value=partials[-1], est_error=bound,
                               partials=tuple(partials))


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    # Imported here so that only the quadrature route loads numpy.polynomial.
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _log_rule(integrand, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """int_lo^hi of a nonnegative integrand for each row of limits, with errors.

    integrand(s) returns (x, p) for the integrand p e^x at s, an array
    whose last axis runs over the nodes; lo is one lower limit for every
    row, hi broadcasts to the rows, and a row with hi <= lo gives an exact
    0. After s = e^u, Gauss-Legendre runs on [ln lo, ln hi] at both
    _ORDERS, with lo raised to the smallest normal double. The error is
    the difference of the two, plus 16 eps (1 + |x|) per sample of the
    finer one (e^x of a rounded x carries a relative error of eps |x|),
    plus the smallest normal double, below which rounding is no longer
    relative. When every row is empty, as when lo has overflowed to inf,
    the integrand is not evaluated.
    """
    lo = max(float(lo), _TINY)
    hi = np.maximum(hi, lo)
    if not (hi > lo).any():
        return np.zeros(hi.shape), np.full(hi.shape, _TINY)
    u_lo = np.log(lo)
    u_hi = np.log(hi)
    half = (0.5 * (u_hi - u_lo))[..., None]
    mid = (0.5 * (u_hi + u_lo))[..., None]
    sums = []
    for n in _ORDERS:
        nodes, weights = _legendre(n)
        s = np.exp(mid + half * nodes)
        x, p = integrand(s)
        terms = half * weights * p * s * np.exp(x)
        sums.append(terms.sum(axis=-1))
    coarse, fine = sums
    roundoff = 16.0 * _EPS * (terms * (1.0 + np.abs(x))).sum(axis=-1)
    return fine, np.abs(fine - coarse) + roundoff + _TINY


def _differences(lams: np.ndarray, a_prime: float, t: float,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """d(t, lam) for each lam by _log_rule, with its error estimate.

    Both integrals of k are cut to [a'^2/_UNDERFLOW, _UNDERFLOW/lam^2]:
    outside it the exponent of k is below -_UNDERFLOW and k is an exact 0.
    """
    lam2 = lams * lams
    a2 = a_prime * a_prime
    rows = lam2[:, None]

    def k(s):
        return -rows * s - a2 / s, 1.0 / np.sqrt(s)

    floor, ceiling = a2 / _UNDERFLOW, _UNDERFLOW / lam2
    with np.errstate(over="ignore"):  # past the double range it is the ceiling
        folded = np.minimum(a2 / (lam2 * t), ceiling)
    first, first_err = _log_rule(k, floor, folded)
    second, second_err = _log_rule(k, max(t, floor), ceiling)
    return first - second, first_err + second_err


def _check_lam(abs_lam: float) -> None:
    if abs_lam < _SMALLEST_LAM:
        raise DomainError(
            f"|lam| must be at least {_SMALLEST_LAM!r}, got {abs_lam!r}: below "
            "it lam^2 leaves the normal double range and the quadrature's "
            "range, to 746/lam^2, overflows")


def per_mode_difference(lam: float, a_prime: float, t: float) -> float:
    """d(t, lam) by quadrature of both integrals.

    Independent of the closed form used by vanishing_term_detailed:
    integrates k(s) = e^{-lam^2 s} e^{-a'^2/s} s^{-1/2} over
    (0, a'^2/(lam^2 t)) and over (t, inf), each by the module's
    Gauss-Legendre rule in ln s at two orders, after cutting the range to
    where k is not an exact 0. Over a' in [0.02, 10], t in [0.005, 1] and
    |lam| in [0.05, 1000] the result stays within 1e-12 of the closed form.
    A |lam| below 1e-150 is refused with DomainError: lam^2 would leave
    the normal double range.
    """
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise DomainError(f"lam must be a nonzero finite real, got {lam!r}")
    _check_lam(abs(lam))
    a_prime = _check_a_prime(a_prime)
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t!r}")
    value, _ = _differences(np.array([lam]), a_prime, t)
    return float(value[0])


def _dominator_integrals(t: float, abs_lambda: float, a_prime: float,
                         ) -> tuple[tuple[float, float], tuple[float, float]]:
    """The integrals inside f1 and f3 of the dominator, and their errors.

    int_0^t e^{-a'^2/s} s^{-1} (1 - a'/(|lam| s))^2 ds and
    int_0^1 e^{-a'^2/s} s^{-1/2} ds, by _log_rule from s = a'^2/_UNDERFLOW,
    below which both integrands are exact zeros. The first is taken in
    r = s/a'^2, where ds/s = dr/r and it reads
    int e^{-1/r} r^{-1} (1 - kappa/r)^2 dr with kappa = 1/(|lam| a'): its
    samples stay below about 4e8 kappa^2, where those in s reach about
    4e8 / (lam^2 a'^4) and overflow for a' below about 1e-75.
    """
    a2 = a_prime * a_prime
    kappa = 1.0 / (abs_lambda * a_prime)
    inner, inner_err = _log_rule(
        lambda r: (-1.0 / r, (1.0 - kappa / r) ** 2 / r),
        1.0 / _UNDERFLOW, t / a2)
    head, head_err = _log_rule(
        lambda s: (-a2 / s, 1.0 / np.sqrt(s)), a2 / _UNDERFLOW, 1.0)
    return (float(inner), float(head)), (float(inner_err), float(head_err))


def dominator(t: float, abs_lambda: float, a_prime: float) -> float:
    """The explicit dominating bound f(t, |lam|) = max(f1, f2 + f3).

    |per_mode_difference(lam, a', t)| <= f(t, |lam|) e^{-a' |lam| / 2} holds
    for all t in (0, 1], and f is uniformly bounded in t, which is what
    makes the term-by-term limit of the regularized vanishing sums valid.

    f1 is a Cauchy-Schwarz factorization of the small-t branch, f2 bounds
    the substituted integral through the maximum of e^{-a'^2/(2s)} s^{-1/2}
    over the folded domain (0, a'^2/(lam^2 t)]; the maximand rises up to
    s = a'^2 and falls after it, so the maximum sits at the smaller of the
    two. f3 is a two-piece direct bound of the large-t branch. The
    integrals inside f1 and f3 are taken by the same Gauss-Legendre rule as
    per_mode_difference. As a' -> 0 the integral inside f1 grows like
    1/(lam^2 a'^2); below a' = max(1e-150, 1e-145/|lam|) it would leave
    double range, and DomainError names that smallest collar.
    """
    for name, val in (("t", t), ("abs_lambda", abs_lambda),
                      ("a_prime", a_prime)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"{name} must be a positive real, got {val!r}")
    smallest = max(_SMALLEST_COLLAR, _SMALLEST_LAM_COLLAR / abs_lambda)
    if a_prime < smallest:
        raise DomainError(
            f"a_prime must be at least {smallest!r} at |lam| = "
            f"{abs_lambda!r}, got {a_prime!r}: below it the dominator's "
            "integral, about 1/(lam^2 a'^2), leaves double range")

    a2 = a_prime * a_prime
    lam2 = abs_lambda * abs_lambda
    (inner, f3_head), _ = _dominator_integrals(t, abs_lambda, a_prime)
    f1 = math.sqrt(a_prime / abs_lambda * math.exp(-a_prime * abs_lambda)) \
        * math.sqrt(max(inner, 0.0))

    def peak(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -a2 / (2.0 * s)
        return math.exp(expo) / math.sqrt(s) if expo > -745.0 else 0.0

    f2 = (a_prime / abs_lambda) * peak(min(a2, a2 / (lam2 * t)))
    f3 = f3_head + 2.0 * math.exp(-lam2 / 2.0) / lam2

    return max(f1, f2 + f3)


@dataclass(frozen=True)
class CertificateFailure(JsonFields):
    """One summability-certificate violation, kept as evidence."""

    t: float
    rank: int
    term: float
    threshold: float


@dataclass(frozen=True)
class VanishingReport:
    """Regularized vanishing sums along a t-sequence, plus the certificate.

    rows holds the (t, partial_sum) pairs. certified is False when the
    dominated series' sampled tail term exceeds the Cauchy threshold at the
    configured cutoff rank; the offending records are kept rather than
    raised, so a failed certificate is visible evidence, not a crash.
    """

    rows: tuple[tuple[float, complex], ...]
    certificate_failures: tuple[CertificateFailure, ...]
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"t": t, "partial_sum": [p.real, p.imag]}
                     for t, p in self.rows],
            "certificate_failures": [f.to_json_dict()
                                     for f in self.certificate_failures],
            "certified": self.certified,
        }


_CAUCHY_THRESHOLD = 1e-12


def verify_vanishing(spectrum: BoundarySpectrum,
                     cfg: VanishingTermConfig) -> VanishingReport:
    """Regularized sums sum_j lam_j a_j d(t, lam_j) along cfg.t_sequence.

    Every d is computed by the quadrature route of per_mode_difference, one
    modes x nodes array per t, so the report is an independent check on
    the closed-form evaluation in vanishing_term_detailed. Modes whose
    envelope sqrt(pi) e^{-lam^2 t - a'^2/t} >= |lam d(t, lam)| is negligible
    against the spectrum scale, or zero, are skipped; the envelope, not the
    closed-form value, justifies the skip. The summability certificate
    evaluates the dominated series' term at the cutoff rank for each t and
    records any that exceed the Cauchy threshold. A spectrum with a |lam|
    below 1e-150 is refused, as per_mode_difference refuses that lam.
    """
    if not isinstance(cfg, VanishingTermConfig):
        raise DomainError("cfg must be a VanishingTermConfig")
    _check_lam(spectrum.gap)
    lams, traces = spectrum.lams, spectrum.traces
    a_prime = cfg.a_prime
    weights = np.abs(traces)
    scale = float(weights.sum())

    rows: list[tuple[float, complex]] = []
    for t in cfg.t_sequence:
        damp = _collar_damping(lams, a_prime, t)
        kept = _SQRT_PI * damp * weights[:damp.size] > _NEGLIGIBLE * scale
        lam, trace = lams[:damp.size][kept], traces[:damp.size][kept]
        d, _ = _differences(lam, a_prime, t)
        rows.append((t, complex((lam * trace * d).sum())))

    failures: list[CertificateFailure] = []
    sample_rank = min(cfg.cutoff_rank, len(lams))
    lam_at = float(lams[sample_rank - 1])
    trace_at = abs(complex(traces[sample_rank - 1]))
    for t in cfg.t_sequence:
        term = abs(lam_at) * trace_at * dominator(t, abs(lam_at), a_prime) \
            * math.exp(-a_prime * abs(lam_at) / 2.0)
        if term > _CAUCHY_THRESHOLD:
            failures.append(CertificateFailure(
                t=t, rank=sample_rank, term=term,
                threshold=_CAUCHY_THRESHOLD))

    return VanishingReport(rows=tuple(rows),
                           certificate_failures=tuple(failures),
                           certified=not failures)
