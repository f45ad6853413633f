"""The contribution from infinity of a cylindrical end.

For a cylinder over a boundary operator with spectrum {lam_j} and
g-weights {a_j}, the contribution at a collar coordinate a' > 0 is

    A_g(a') = -f1(a') int_0^inf sum_j a_j K_lam(lam_j, s, a', a') ds,

where K_lam is the boundary-condition kernel combination evaluated on the
diagonal. On the diagonal the combination collapses per mode to

    e^{-lam^2 s} (4 pi s)^{-1/2} [lam + sgn(lam) e^{-a'^2/s} (a'/s - |lam|)],

whose s-integral splits into an eta piece (integrating to sgn(lam)/2) and a
vanishing piece (integrating to exactly zero mode by mode). Hence
A_g(a') = -f1(a') eta_g / 2 for every a' > 0: the contribution does not
depend on where the collar is cut.

contribution() uses that closed form: direct_value and decomposed_value
are both -f1 eta/2, read from the sums the spectrum keeps, and est_error
is |f1| times eta's. No per-mode array is built and no erfc is evaluated;
the vanishing piece is zero mode by mode, so vanishing_residual is an
exact 0, kept for the JSON contract. The check of the zero lives in
verify-vanishing, by a quadrature that shares no code with eta, and the
per-mode quadrature of the whole bracket lives in the test oracles.

Only the collar factors e^{-lam^2 s_f - a'^2/s_f} and e^{-2 a' |lam|} of
the Dirichlet variant depend on a'. They fall with |lam|, by which the
modes are sorted, so each lives only on the prefix where its exponent
stays above -746 (one bisection); past it the factor is an exact 0.0,
and the variant sums over that prefix only.

dirichlet_variant_contribution returns an Estimate, the value with its
error budget. It swaps the per-mode factor (a'/s - |lam|) in the
vanishing piece for (sgn(lam) a'/s - |lam|), which is what imposing a
Dirichlet instead of a spectral boundary condition does to the kernel.
Per mode, the integral of the spectral bracket from the resolved floor
s_f of the eta invariant is

    sgn(lam) [erfc(|lam| sqrt(s_f)) - c] / 2,
    c = erfcx(|lam| sqrt(s_f) + a'/sqrt(s_f)) e^{-lam^2 s_f - a'^2/s_f},

eta's own term, halved, less the collar piece c. The Dirichlet bracket
is the same on lam > 0 modes; on lam < 0 its integral from s_f is

    [e^{-2 a' |lam|} erfc(v) - erfc(|lam| sqrt(s_f))] / 2,
    v = |lam| sqrt(s_f) - a'/sqrt(s_f),

with no collar piece. So the variant
is -(eta/2 + sum_j a_j h_j), read from eta's kept sum, with the half-term
h_j = -c_j / 2 on the lam > 0 modes of the live prefix and
e^{-2 a' |lam_j|} erfc(v_j) / 2 on the lam < 0 modes where
e^{-2 a' |lam|} is not an exact 0.0 (|lam| <= 373/a'); no collar piece
is computed on a lam < 0 mode. When the floor is refused the integrals
start at 0, where h_j is e^{-2 a' |lam_j|} on lam < 0 and 0 on lam > 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
import numpy as np

from ._json import JsonFields
from ._special import erfc as _erfc_arr, erfcx as _erfcx_arr
from .errors import DomainError
from .eta import _roundoff, eta_invariant
from .spectral import BoundarySpectrum, FloorAnalysis

__all__ = [
    "Estimate",
    "ContributionReport",
    "contribution",
    "dirichlet_variant_contribution",
]

# e^{-x} is an exact 0 in double precision for every x above this. The
# vanishing verifier reads it and _check_a_prime from here, so that no
# runtime module imports a verifier.
_UNDERFLOW = 746.0


def _check_a_prime(a_prime: float) -> float:
    a_prime = float(a_prime)
    if not (math.isfinite(a_prime) and a_prime > 0.0):
        raise DomainError(f"a_prime must be a positive real, got {a_prime!r}")
    return a_prime


@dataclass(frozen=True)
class Estimate(JsonFields):
    """A value with est_error, the bound on its numerical error. complex(e)
    and e + z read the value, for callers that use the result as a number."""

    value: complex
    est_error: float

    def __complex__(self) -> complex:
        return self.value

    def __add__(self, other) -> complex:
        return self.value + other


@dataclass(frozen=True)
class ContributionReport(JsonFields):
    """A_g(a') and its eta bookkeeping.

    direct_value == decomposed_value == -(1/2) eta_reference bit for bit:
    the contribution is -f1 eta/2 for every collar. vanishing_residual is
    an exact 0, because the vanishing integral is zero mode by mode; it
    and the two values are kept for the JSON contract. eta_reference is
    the eta invariant scaled by f1_at_aprime, so with the default f1 = 1
    it is the eta invariant itself. est_error is |f1| times eta's.
    """

    a_prime: float
    f1_at_aprime: float
    direct_value: complex
    decomposed_value: complex
    vanishing_residual: complex
    eta_reference: complex
    est_error: float


def _collar_reach(lams: np.ndarray, a_prime: float, T: float) -> int:
    """The number of leading modes whose e^{-lam^2 T - a'^2/T} is not an
    exact 0.0: its exponent stays above -_UNDERFLOW."""
    offset = (a_prime * a_prime) / T
    reach = math.sqrt(max(_UNDERFLOW - offset, 0.0) / T)
    return bisect.bisect_right(lams, reach, key=abs)


def _collar_damping(lams: np.ndarray, a_prime: float, T: float) -> np.ndarray:
    """e^{-lam^2 T - a'^2/T} on the leading modes whose exponent stays
    above -_UNDERFLOW; on every later mode it is an exact 0.0."""
    head = lams[:_collar_reach(lams, a_prime, T)]
    return np.exp(-(head * head) * T - (a_prime * a_prime) / T)


def _dirichlet_damping(lams: np.ndarray, a_prime: float) -> np.ndarray:
    """e^{-2 a' |lam|} on the leading modes where it is not an exact 0.0."""
    reach = bisect.bisect_right(lams, _UNDERFLOW / (2.0 * a_prime), key=abs)
    return np.exp(-2.0 * a_prime * np.abs(lams[:reach]))


def _collar_piece(lams: np.ndarray, a_prime: float, T: float) -> np.ndarray:
    """erfcx(|lam| sqrt(T) + a'/sqrt(T)) e^{-lam^2 T - a'^2/T}, exact and
    overflow-free for any lam, on the leading modes where the collar factor
    lives; on every later mode it is an exact 0.0."""
    expo, sqrt_T = _collar_damping(lams, a_prime, T), math.sqrt(T)
    return _erfcx_arr(np.abs(lams[:expo.size]) * sqrt_T + a_prime / sqrt_T) * expo


def _collar_cut(analysis: FloorAnalysis, a_prime: float) -> float:
    """A bound on the collar-dependent part of the integrals over [0, s_f],
    which the cut at the resolved floor s_f removes too although it has no
    truncation artifact: per mode at most [erfc(a'/sqrt(s_f))
    + e^{-a'^2/s_f}] / 2, from the a'/s and |lam| terms of the bracket,
    whose Dirichlet form differs only in the sign of the a'/s term."""
    floor = analysis.floor
    return 0.5 * (math.erfc(a_prime / math.sqrt(floor))
                  + math.exp(-a_prime * a_prime / floor)) * analysis.trace_mass


def contribution(spectrum: BoundarySpectrum, a_prime: float,
                 f1_at_aprime: float = 1.0) -> ContributionReport:
    """A_g(a') = -f1 eta/2, from eta's kept sum.

    The contribution does not depend on the collar, so a_prime is only
    checked and reported: direct_value and decomposed_value are both
    -f1 eta/2, vanishing_residual is an exact 0, and est_error is |f1|
    times eta's.
    """
    a_prime = _check_a_prime(a_prime)
    f1 = float(f1_at_aprime)
    if not math.isfinite(f1):
        raise DomainError(f"f1_at_aprime must be finite, got {f1_at_aprime!r}")

    eta_res = eta_invariant(spectrum)
    eta_reference = f1 * eta_res.value
    value = -0.5 * eta_reference
    return ContributionReport(
        a_prime=a_prime, f1_at_aprime=f1,
        direct_value=value, decomposed_value=value, vanishing_residual=0j,
        eta_reference=eta_reference,
        est_error=abs(f1) * eta_res.est_error)


def dirichlet_variant_contribution(spectrum: BoundarySpectrum,
                                   a_prime: float) -> Estimate:
    """A_g^F(a'), the contribution computed with the Dirichlet kernel, with
    its error budget: -(eta/2 + sum_j a_j h_j), h_j the half-terms of the
    module docstring. No collar-independence holds here: each lam < 0 mode
    leaves an extra -e^{-2 a' |lam|} behind, so the value is
    -eta/2 - sum_{lam_j < 0} a_j e^{-2 a' |lam_j|}: exactly -eta/2 on a
    spectrum with only positive modes such as {2}, and -eta/2 - e^{-4 a'}
    on the symmetric pair {-2, 2}.
    """
    a_prime = _check_a_prime(a_prime)
    eta_res = eta_invariant(spectrum)
    analysis, lams, traces = spectrum.floor_analysis, spectrum.lams, spectrum.traces
    damp = _dirichlet_damping(lams, a_prime)
    neg = lams[:damp.size] < 0.0
    floor, cut, neg_traces = analysis.floor, 0.0, traces[:damp.size][neg]
    if floor is None:  # erfc(v) -> 2 and the collar piece -> 0
        terms = neg_traces * damp[neg]
    else:
        sqrt_T = math.sqrt(floor)
        pos = lams[:_collar_reach(lams, a_prime, floor)] > 0.0
        piece = _collar_piece(lams[:pos.size][pos], a_prime, floor)
        # lam * -sqrt(T) is |lam| sqrt(T) exactly on lam < 0
        erfc_v = _erfc_arr(lams[:damp.size][neg] * -sqrt_T - a_prime / sqrt_T)
        terms = 0.5 * np.concatenate((neg_traces * (damp[neg] * erfc_v),
                                      traces[:pos.size][pos] * -piece))
        cut = _collar_cut(analysis, a_prime)
    return Estimate(value=-(0.5 * eta_res.value + complex(terms.sum())),
                    est_error=0.5 * eta_res.est_error + cut + _roundoff(terms))
