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
sgn(lam)/2 when the floor is refused), while decomposed_value is -eta/2;
both read the erfc(|lam| sqrt(s_f)) array that the spectrum keeps. The
vanishing piece is zero mode by mode, so it is not evaluated:
vanishing_residual is an exact 0, kept for the JSON contract, and the
vanishing module verifies the zero.
The quadrature route of the same integrals lives in the test oracles.

The collar factors e^{-lam^2 s_f - a'^2/s_f} and e^{-2 a' |lam|} fall with
|lam|, by which the modes are sorted, so each is evaluated only on the
prefix where its exponent stays above -746 (one searchsorted). Past it the
factor is an exact 0.0 and is stored as one, so every value is unchanged
bit for bit; at a'^2/s_f > 746 the first prefix is empty.

dirichlet_variant_contribution swaps the per-mode factor (a'/s - |lam|) in
the vanishing piece for (sgn(lam) a'/s - |lam|), which is what imposing a
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
from .spectral import BoundarySpectrum, _Modes
from .vanishing import _UNDERFLOW, _check_a_prime

__all__ = [
    "ContributionReport",
    "contribution_integrand",
    "contribution",
    "dirichlet_variant_contribution",
]


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


def contribution_integrand(spectrum: BoundarySpectrum, a_prime: float,
                           s: float) -> complex:
    """The spectral sum of diagonal kernel combinations at heat time s.

    Equals sum_j trace_g(j) * lambda_mode_kernel(lam_j, s, a', a'); the
    collapsed bracket sum_j a_j e^{-lam^2 s} (4 pi s)^{-1/2} [lam + sgn(lam)
    e^{-a'^2/s} (a'/s - |lam|)] used here is algebraically identical on the
    diagonal and is what makes large spectra affordable. The test suite
    checks the two forms against each other.
    """
    a_prime = _check_a_prime(a_prime)
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"s must be a positive real, got {s!r}")
    lams, traces = spectrum.lams, spectrum.traces
    expo = -(a_prime * a_prime) / s
    damp = math.exp(expo) if expo > -745.0 else 0.0
    bracket = lams + np.sign(lams) * damp * (a_prime / s - np.abs(lams))
    norm = 1.0 / math.sqrt(4.0 * math.pi * s)
    return complex((traces * np.exp(-s * lams * lams) * bracket).sum() * norm)


def _on_prefix(head: np.ndarray, size: int) -> np.ndarray:
    """head followed by exact zeros, size entries in all."""
    return np.concatenate([head, np.zeros(size - head.size)])


def _collar_damping(abs_l: np.ndarray, a_prime: float, T: float) -> np.ndarray:
    """e^{-lam^2 T - a'^2/T} on the leading modes whose exponent stays
    above -_UNDERFLOW; on every later mode it is an exact 0.0."""
    offset = (a_prime * a_prime) / T
    reach = math.sqrt(max(_UNDERFLOW - offset, 0.0) / T)
    head = abs_l[:int(abs_l.searchsorted(reach, side="right"))]
    return np.exp(-(head * head) * T - offset)


def _dirichlet_damping(abs_l: np.ndarray, a_prime: float) -> np.ndarray:
    """e^{-2 a' |lam|} on the leading modes where it is not an exact 0.0."""
    reach = int(abs_l.searchsorted(_UNDERFLOW / (2.0 * a_prime), side="right"))
    return np.exp(-2.0 * a_prime * abs_l[:reach])


def _spectral_tails(modes: _Modes, a_prime: float, T: float) -> np.ndarray:
    """Per-mode int_T^inf of the spectral-condition diagonal, in closed form.

    For each mode: sgn(lam) [erfc(|lam| sqrt(T))
    - erfcx(|lam| sqrt(T) + a'/sqrt(T)) e^{-lam^2 T - a'^2/T}] / 2. The
    erfcx form keeps the evaluation exact and overflow-free for any lam.
    """
    abs_l, sqrt_T = modes.abs_l, math.sqrt(T)
    expo = _collar_damping(abs_l, a_prime, T)
    damped = _erfcx_arr(abs_l[:expo.size] * sqrt_T + a_prime / sqrt_T) * expo
    return modes.sgn * 0.5 * (modes.erfc - _on_prefix(damped, abs_l.size))


def _dirichlet_tails(modes: _Modes, a_prime: float, T: float) -> np.ndarray:
    """Per-mode int_T^inf of the Dirichlet-condition diagonal, in closed form.

    lam > 0 modes match the spectral-condition tail. On lam < 0 the sign
    flip turns the combination into one whose primitive involves
    erfcx(|lam| sqrt(s) - a'/sqrt(s)); when that argument is negative the
    equivalent e^{-2 a' |lam|} (2 - erfc(...)) form is used so nothing
    overflows.
    """
    sqrt_T, expo = math.sqrt(T), _collar_damping(modes.abs_l, a_prime, T)
    neg_damp = _dirichlet_damping(modes.abs_l, a_prime)
    v = modes.abs_l[:max(expo.size, neg_damp.size)] * sqrt_T - a_prime / sqrt_T
    safe_v = np.where(v[:expo.size] >= 0.0, v[:expo.size], 0.0)
    branch_pos_v = _on_prefix(0.5 * _erfcx_arr(safe_v) * expo, v.size)
    branch_neg_v = _on_prefix(
        0.5 * neg_damp * (2.0 - _erfc_arr(-v[:neg_damp.size])), v.size)
    neg = -0.5 * modes.erfc + _on_prefix(
        np.where(v >= 0.0, branch_pos_v, branch_neg_v), modes.erfc.size)
    return np.where(modes.sgn > 0.0, _spectral_tails(modes, a_prime, T), neg)


def _integral(spectrum: BoundarySpectrum, a_prime: float,
              dirichlet: bool) -> tuple[complex, float]:
    """sum_j a_j int_{s_f}^inf (diagonal bracket of mode j) ds, with its
    error budget.

    s_f is the resolved floor of the eta invariant. When it is refused the
    integrals start at 0, where each mode gives sgn(lam)/2 plus the
    integral of its collar-dependent part (e^{-2 a' |lam|} on lam < 0 for
    the Dirichlet bracket, else 0). The budget holds the roundoff, the eta
    piece of the skipped segment [0, s_f] and a bound on the
    collar-dependent part over that segment, which the cut removes too
    although it has no truncation artifact: per mode at most
    [erfc(a'/sqrt(s_f)) + e^{-a'^2/s_f}] / 2, the first from the a'/s
    term and the second from the |lam| term of the bracket.
    """
    traces, analysis, modes = (spectrum.traces, spectrum.floor_analysis,
                               spectrum.modes)
    floor = analysis.floor
    if floor is None:
        terms = 0.5 * traces * modes.sgn
        if dirichlet:
            damp = _dirichlet_damping(modes.abs_l, a_prime)
            terms = terms + traces * _on_prefix(np.where(
                modes.sgn[:damp.size] < 0.0, damp, 0.0), traces.size)
        return complex(terms.sum()), _roundoff(terms)
    tails = _dirichlet_tails if dirichlet else _spectral_tails
    terms = traces * tails(modes, a_prime, floor)
    collar_cut = 0.5 * (math.erfc(a_prime / math.sqrt(floor))
                        + math.exp(-a_prime * a_prime / floor))
    est = (_roundoff(terms) + 0.5 * analysis.skipped_segment
           + collar_cut * analysis.trace_mass)
    return complex(terms.sum()), est


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


def _dirichlet_variant_detailed(spectrum: BoundarySpectrum, a_prime: float,
                                ) -> tuple[complex, float]:
    """A_g^F(a') together with its error budget."""
    a_prime = _check_a_prime(a_prime)
    integral, est = _integral(spectrum, a_prime, dirichlet=True)
    return -integral, est


def dirichlet_variant_contribution(spectrum: BoundarySpectrum,
                                   a_prime: float) -> complex:
    """A_g^F(a'): the contribution computed with the Dirichlet kernel.

    Same closed-form pipeline as the direct value of contribution(), with
    the Dirichlet bracket's per-mode integrals. No collar-independence
    holds here: each lam < 0 mode leaves an extra -e^{-2 a' |lam|} behind,
    so the value is -eta/2 - sum_{lam_j < 0} a_j e^{-2 a' |lam_j|}: exactly
    -eta/2 when every mode is positive, and shifted by the negative modes
    whether or not the spectrum is symmetric.
    """
    value, _ = _dirichlet_variant_detailed(spectrum, a_prime)
    return value
