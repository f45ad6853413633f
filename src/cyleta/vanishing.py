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
  adaptive quadrature, so they can certify the closed-form route.

The dominator f(t, |lam|) packages the explicit bounds that justify
exchanging the limit with the spectral sum: |d(t, lam)| is dominated by
f(t, |lam|) e^{-a' |lam| / 2} uniformly in t in (0, 1], and the dominated
series is summable over any admissible spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._json import JsonFields
from ._special import erfcx as _erfcx_arr
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

# Fixed absolute tolerance for the dominator's inner integrals. They feed a
# one-sided bound with large margin, so this never needs to be configurable.
_DOMINATOR_TOL = 1e-10

# Terms of the regularized sum whose analytic envelope falls below this
# fraction of the spectrum scale are skipped in the quadrature route.
_NEGLIGIBLE = 1e-30

# e^{-x} is an exact 0 in double precision for every x above this.
_UNDERFLOW = 746.0


def _check_a_prime(a_prime: float) -> float:
    a_prime = float(a_prime)
    if not (math.isfinite(a_prime) and a_prime > 0.0):
        raise DomainError(f"a_prime must be a positive real, got {a_prime!r}")
    return a_prime


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

    lam * d(t, lam) = -sqrt(pi) sgn(lam) erfcx(|lam| sqrt(t) + a'/sqrt(t))
    e^{-lam^2 t - a'^2 / t}; the erfcx form never overflows and the combined
    exponent is exact, so this is accurate for every mode at every t.
    """
    abs_l = np.abs(lams)
    sqrt_t = math.sqrt(t)
    z = abs_l * sqrt_t + a_prime / sqrt_t
    expo = -(lams * lams) * t - (a_prime * a_prime) / t
    terms = traces * (-_SQRT_PI) * np.sign(lams) * _erfcx_arr(z) * np.exp(expo)
    return complex(terms.sum())


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


def _mode_envelope(lam: float, a_prime: float, t: float) -> float:
    """Overflow-free upper bound for |lam * d(t, lam)|, from the closed form."""
    expo = -lam * lam * t - a_prime * a_prime / t
    if expo < -745.0:
        return 0.0
    return _SQRT_PI * math.exp(expo)


def per_mode_difference(lam: float, a_prime: float, t: float) -> float:
    """d(t, lam) by adaptive quadrature of both integrals.

    Independent of the closed form used by vanishing_term_detailed:
    integrates k(s) = e^{-lam^2 s} e^{-a'^2/s} s^{-1/2} over
    (0, a'^2/(lam^2 t)) and over (t, X) with X = max(40/lam^2, 2t), beyond
    which the remainder is below sqrt(pi)/|lam| erfc(|lam| sqrt(X)) < 1e-18
    and is dropped.
    """
    lam = float(lam)
    if lam == 0.0 or not math.isfinite(lam):
        raise DomainError(f"lam must be a nonzero finite real, got {lam!r}")
    a_prime = _check_a_prime(a_prime)
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t!r}")

    lam2 = lam * lam
    a2 = a_prime * a_prime

    def k(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -lam2 * s - a2 / s
        return math.exp(expo) / math.sqrt(s) if expo > -745.0 else 0.0

    # Imported here, as in dominator(), so that importing the package and
    # the closed-form routes never load scipy.integrate.
    from scipy.integrate import quad

    upper_first = a2 / (lam2 * t)
    first, _ = quad(k, 0.0, upper_first, epsabs=1e-12, epsrel=1e-11,
                    limit=300)
    x_cut = max(40.0 / lam2, 2.0 * t)
    second, _ = quad(k, t, x_cut, epsabs=1e-12, epsrel=1e-11, limit=300)
    return first - second


def _golden_max(func, lo: float, hi: float) -> float:
    """Maximum of a unimodal function on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = func(c), func(d)
    for _ in range(200):
        if b - a <= 1e-13 * (abs(a) + abs(b)) + 1e-300:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = func(d)
    return max(fc, fd)


def dominator(t: float, abs_lambda: float, a_prime: float) -> float:
    """The explicit dominating bound f(t, |lam|) = max(f1, f2 + f3).

    |per_mode_difference(lam, a', t)| <= f(t, |lam|) e^{-a' |lam| / 2} holds
    for all t in (0, 1], and f is uniformly bounded in t, which is what
    makes the term-by-term limit of the regularized vanishing sums valid.

    f1 is a Cauchy-Schwarz factorization of the small-t branch, f2 bounds
    the substituted integral through the maximum of e^{-a'^2/(2s)} s^{-1/2}
    over the folded domain (found by golden-section search around the
    stationary point s = a'^2), and f3 is a two-piece direct bound of the
    large-t branch.
    """
    for name, val in (("t", t), ("abs_lambda", abs_lambda),
                      ("a_prime", a_prime)):
        if not (math.isfinite(val) and val > 0.0):
            raise DomainError(f"{name} must be a positive real, got {val!r}")

    from scipy.integrate import quad

    a2 = a_prime * a_prime
    lam2 = abs_lambda * abs_lambda

    def f1_integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -a2 / s
        if expo < -745.0:
            return 0.0
        return math.exp(expo) / s * (1.0 - a_prime / (abs_lambda * s)) ** 2

    inner, _ = quad(f1_integrand, 0.0, t, epsabs=_DOMINATOR_TOL,
                           limit=300)
    f1 = math.sqrt(a_prime / abs_lambda * math.exp(-a_prime * abs_lambda)) \
        * math.sqrt(max(inner, 0.0))

    def peak(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -a2 / (2.0 * s)
        return math.exp(expo) / math.sqrt(s) if expo > -745.0 else 0.0

    upper = a2 / (lam2 * t)
    # The maximand is unimodal with stationary point a'^2; cap the bracket
    # there when the domain extends past it, and keep the analytic candidate
    # in play either way.
    hi = min(upper, 4.0 * a2)
    f2 = (a_prime / abs_lambda) * max(_golden_max(peak, 0.0, hi),
                                      peak(min(a2, upper)))

    def f3_integrand(s: float) -> float:
        if s <= 0.0:
            return 0.0
        expo = -a2 / s
        return math.exp(expo) / math.sqrt(s) if expo > -745.0 else 0.0

    f3_head, _ = quad(f3_integrand, 0.0, 1.0, epsabs=_DOMINATOR_TOL,
                             limit=300)
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

    Every d is computed by per_mode_difference (the quadrature route), so
    the report is an independent check on the closed-form evaluation in
    vanishing_term_detailed. Modes whose analytic envelope is negligible
    against the spectrum scale are skipped; the envelope bound, not the
    closed-form value, justifies the skip. The summability certificate
    evaluates the dominated series' term at the cutoff rank for each t and
    records any that exceed the Cauchy threshold.
    """
    if not isinstance(cfg, VanishingTermConfig):
        raise DomainError("cfg must be a VanishingTermConfig")
    lams, traces = spectrum.lams, spectrum.traces
    a_prime = cfg.a_prime
    scale = float(np.abs(traces).sum())

    rows: list[tuple[float, complex]] = []
    for t in cfg.t_sequence:
        total = 0.0 + 0.0j
        for lam, trace in zip(lams.tolist(), traces.tolist()):
            if _mode_envelope(lam, a_prime, t) * abs(trace) \
                    <= _NEGLIGIBLE * scale:
                continue
            total += lam * trace * per_mode_difference(lam, a_prime, t)
        rows.append((t, total))

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
