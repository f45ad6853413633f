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

contribution() computes both sides separately: direct_value sums the
closed-form per-mode integral of the whole bracket from the resolved floor
of the eta invariant (erfc/erfcx expressions, or the s -> 0 limit
sgn(lam)/2 when the floor is refused), while decomposed_value is -eta/2,
read from the eta sums the spectrum keeps. The
vanishing piece is zero mode by mode, so it is not evaluated:
vanishing_residual is an exact 0, kept for the JSON contract, and the
vanishing module verifies the zero.
The quadrature route of the same integrals lives in the test oracles.

Only the collar factors e^{-lam^2 s_f - a'^2/s_f} and e^{-2 a' |lam|}
depend on a'. They fall with |lam|, by which the modes are sorted, so each
lives only on the prefix where its exponent stays above -746 (one
searchsorted); past it the factor is an exact 0.0 and the mode's tail is
its collar-free one, sgn(lam) erfc(|lam| sqrt(s_f))/2. A query therefore
starts from that collar-free array and overwrites only the live prefix
with the full formula, which gives every per-mode term bit for bit. When
no spectral collar factor lives (a'^2/s_f > 746) or the floor is refused,
the spectral terms are the collar-free ones, whose sum and roundoff the
spectrum keeps as two scalars in spectrum.collar_free: such a query
builds no array. The Dirichlet factor lives up to |lam| = 373/a', so the
Dirichlet variant always builds its terms.

dirichlet_variant_contribution returns an Estimate, the value with its
error budget. It swaps the per-mode factor (a'/s - |lam|) in the
vanishing piece for (sgn(lam) a'/s - |lam|), which is what imposing a
Dirichlet instead of a spectral boundary condition does to the kernel. The
modified vanishing piece still integrates to zero on lam > 0 modes but
leaves -e^{-2 a' |lam|} on each lam < 0 mode, so the variant drifts from
-eta/2 by exactly -sum_{lam_j < 0} a_j e^{-2 a' |lam_j|}: not at all on a
spectrum with only positive modes such as {2}, and by -e^{-4 a'} on the
symmetric pair {-2, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ._json import JsonFields
from ._special import erfc as _erfc_arr, erfcx as _erfcx_arr
from .errors import DomainError
from .eta import _roundoff, eta_invariant
from .spectral import BoundarySpectrum, _Modes, _kept

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
    """Both evaluations of A_g(a') and the bookkeeping between them.

    decomposed_value == -(1/2) eta_reference + vanishing_residual holds
    exactly. vanishing_residual is an exact 0, because the vanishing
    integral is zero mode by mode; it is kept for the JSON contract.
    eta_reference is the eta invariant scaled by f1_at_aprime, so with the
    default f1 = 1 it is the eta invariant itself. est_error bounds the
    numerical error of direct_value and dominates
    |direct_value - decomposed_value|.
    """

    a_prime: float
    f1_at_aprime: float
    direct_value: complex
    decomposed_value: complex
    vanishing_residual: complex
    eta_reference: complex
    est_error: float


def _collar_reach(abs_l: np.ndarray, a_prime: float, T: float) -> int:
    """The number of leading modes whose e^{-lam^2 T - a'^2/T} is not an
    exact 0.0: its exponent stays above -_UNDERFLOW."""
    offset = (a_prime * a_prime) / T
    reach = math.sqrt(max(_UNDERFLOW - offset, 0.0) / T)
    return int(abs_l.searchsorted(reach, side="right"))


def _collar_damping(abs_l: np.ndarray, a_prime: float, T: float) -> np.ndarray:
    """e^{-lam^2 T - a'^2/T} on the leading modes whose exponent stays
    above -_UNDERFLOW; on every later mode it is an exact 0.0."""
    head = abs_l[:_collar_reach(abs_l, a_prime, T)]
    return np.exp(-(head * head) * T - (a_prime * a_prime) / T)


def _dirichlet_damping(abs_l: np.ndarray, a_prime: float) -> np.ndarray:
    """e^{-2 a' |lam|} on the leading modes where it is not an exact 0.0."""
    reach = int(abs_l.searchsorted(_UNDERFLOW / (2.0 * a_prime), side="right"))
    return np.exp(-2.0 * a_prime * abs_l[:reach])


def _collar_free(modes: _Modes) -> np.ndarray:
    """sgn(lam) erfc(|lam| sqrt(s_f)) / 2: each mode's tail where its
    collar factors are exact zeros, as a new array."""
    return (modes.sgn * 0.5) * modes.erfc


def _spectral_head(modes: _Modes, a_prime: float, T: float,
                   expo: np.ndarray, size: int) -> np.ndarray:
    """The spectral tails of the first size modes, given the collar
    factors expo = _collar_damping(...) of the first expo.size <= size."""
    sqrt_T = math.sqrt(T)
    damped = np.zeros(size)
    damped[:expo.size] = _erfcx_arr(
        modes.abs_l[:expo.size] * sqrt_T + a_prime / sqrt_T) * expo
    return (modes.sgn[:size] * 0.5) * (modes.erfc[:size] - damped)


def _spectral_tails(modes: _Modes, a_prime: float, T: float) -> np.ndarray:
    """Per-mode int_T^inf of the spectral-condition diagonal, in closed form.

    For each mode: sgn(lam) [erfc(|lam| sqrt(T))
    - erfcx(|lam| sqrt(T) + a'/sqrt(T)) e^{-lam^2 T - a'^2/T}] / 2. The
    erfcx form keeps the evaluation exact and overflow-free for any lam.
    Only the live prefix is evaluated; past it the collar factor is an
    exact 0.0 and the tail is the collar-free one.
    """
    expo = _collar_damping(modes.abs_l, a_prime, T)
    tails = _collar_free(modes)
    tails[:expo.size] = _spectral_head(modes, a_prime, T, expo, expo.size)
    return tails


def _dirichlet_tails(modes: _Modes, a_prime: float, T: float) -> np.ndarray:
    """Per-mode int_T^inf of the Dirichlet-condition diagonal, in closed form.

    lam > 0 modes match the spectral-condition tail. On lam < 0 the sign
    flip turns the combination into one whose primitive involves
    erfcx(|lam| sqrt(s) - a'/sqrt(s)); when that argument is negative the
    equivalent e^{-2 a' |lam|} (2 - erfc(...)) form is used so nothing
    overflows. Only the prefix where a collar factor lives is evaluated.
    """
    sqrt_T, expo = math.sqrt(T), _collar_damping(modes.abs_l, a_prime, T)
    neg_damp = _dirichlet_damping(modes.abs_l, a_prime)
    live = max(expo.size, neg_damp.size)
    v = modes.abs_l[:live] * sqrt_T - a_prime / sqrt_T
    safe_v = np.where(v[:expo.size] >= 0.0, v[:expo.size], 0.0)
    branch_pos_v, branch_neg_v = np.zeros(live), np.zeros(live)
    branch_pos_v[:expo.size] = 0.5 * _erfcx_arr(safe_v) * expo
    branch_neg_v[:neg_damp.size] = \
        0.5 * neg_damp * (2.0 - _erfc_arr(-v[:neg_damp.size]))
    neg = -0.5 * modes.erfc[:live] + np.where(v >= 0.0, branch_pos_v,
                                              branch_neg_v)
    tails = _collar_free(modes)
    tails += 0.0  # a lam < 0 tail is -erfc/2 + 0.0 there, never -0.0
    tails[:live] = np.where(modes.sgn[:live] > 0.0,
                            _spectral_head(modes, a_prime, T, expo, live), neg)
    return tails


def _summed(terms: np.ndarray) -> tuple[complex, float]:
    """The sum of per-mode terms and its roundoff."""
    return complex(terms.sum()), _roundoff(terms)


def _spectral_sums(spectrum: BoundarySpectrum) -> tuple[complex, float]:
    """The sum and roundoff of the spectral terms when every collar factor
    is an exact 0.0: sgn(lam) a erfc(|lam| sqrt(s_f)) / 2 from the floor,
    or the s -> 0 limit sgn(lam) a / 2 when it is refused."""
    modes = spectrum.modes
    if modes.erfc is None:
        return _summed(0.5 * spectrum.traces * modes.sgn)
    return _summed(spectrum.traces * _collar_free(modes))


def _integral(spectrum: BoundarySpectrum, a_prime: float,
              dirichlet: bool) -> tuple[complex, float]:
    """sum_j a_j int_{s_f}^inf (diagonal bracket of mode j) ds, with its
    error budget.

    s_f is the resolved floor of the eta invariant. When it is refused the
    integrals start at 0, where each mode gives sgn(lam)/2 plus the
    integral of its collar-dependent part (e^{-2 a' |lam|} on lam < 0 for
    the Dirichlet bracket, else 0). The spectral bracket's sum is the
    kept collar-free one whenever no collar factor lives. The budget holds
    the roundoff, the eta piece of the skipped segment [0, s_f] and a
    bound on the collar-dependent part over that segment, which the cut
    removes too although it has no truncation artifact: per mode at most
    [erfc(a'/sqrt(s_f)) + e^{-a'^2/s_f}] / 2, the first from the a'/s
    term and the second from the |lam| term of the bracket.
    """
    traces, analysis, modes = (spectrum.traces, spectrum.floor_analysis,
                               spectrum.modes)
    floor = analysis.floor
    if not dirichlet and (floor is None
                          or not _collar_reach(modes.abs_l, a_prime, floor)):
        total, roundoff = _kept(spectrum, "spectral", _spectral_sums)
    elif floor is None:
        damp = _dirichlet_damping(modes.abs_l, a_prime)
        shift = np.zeros(traces.size)
        shift[:damp.size] = np.where(modes.sgn[:damp.size] < 0.0, damp, 0.0)
        total, roundoff = _summed(0.5 * traces * modes.sgn + traces * shift)
    else:
        tails = _dirichlet_tails if dirichlet else _spectral_tails
        total, roundoff = _summed(traces * tails(modes, a_prime, floor))
    if floor is None:
        return total, roundoff
    collar_cut = 0.5 * (math.erfc(a_prime / math.sqrt(floor))
                        + math.exp(-a_prime * a_prime / floor))
    est = (roundoff + 0.5 * analysis.skipped_segment
           + collar_cut * analysis.trace_mass)
    return total, est


def contribution(spectrum: BoundarySpectrum, a_prime: float,
                 f1_at_aprime: float = 1.0) -> ContributionReport:
    """Compute A_g(a') directly and via the eta/vanishing decomposition.

    direct_value = -f1 sum_j a_j (closed-form integral of mode j from the
    resolved floor). decomposed_value = -f1 eta/2, because V(a') = 0.
    Both sides read the spectrum's one erfc(|lam_j| sqrt(s_f)) array.
    """
    a_prime = _check_a_prime(a_prime)
    f1 = float(f1_at_aprime)
    if not math.isfinite(f1):
        raise DomainError(f"f1_at_aprime must be finite, got {f1_at_aprime!r}")

    integral, integral_err = _integral(spectrum, a_prime, dirichlet=False)
    eta_res = eta_invariant(spectrum)

    eta_reference = f1 * eta_res.value
    est = abs(f1) * (integral_err + 0.5 * eta_res.est_error)

    return ContributionReport(
        a_prime=a_prime, f1_at_aprime=f1, direct_value=-f1 * integral,
        decomposed_value=-0.5 * eta_reference, vanishing_residual=0j,
        eta_reference=eta_reference, est_error=est)


def dirichlet_variant_contribution(spectrum: BoundarySpectrum,
                                   a_prime: float) -> Estimate:
    """A_g^F(a'), the contribution computed with the Dirichlet kernel, with
    its error budget.

    Same closed-form pipeline as the direct value of contribution(), with
    the Dirichlet bracket's per-mode integrals. No collar-independence
    holds here: each lam < 0 mode leaves an extra -e^{-2 a' |lam|} behind,
    so the value is -eta/2 - sum_{lam_j < 0} a_j e^{-2 a' |lam_j|}: exactly
    -eta/2 when every mode is positive, and shifted by the negative modes
    whether or not the spectrum is symmetric.
    """
    integral, est = _integral(spectrum, _check_a_prime(a_prime),
                              dirichlet=True)
    return Estimate(value=-integral, est_error=est)
