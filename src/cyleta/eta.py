"""The g-weighted eta invariant of a boundary spectrum.

eta = (1/sqrt(pi)) int_0^inf Tr(g e^{-s D^2} D) s^{-1/2} ds. For a finite
list of modes every piece of that integral has a closed form, from the
per-mode identity

    (1/sqrt(pi)) int_s^inf lam e^{-lam^2 r} r^{-1/2} dr = sgn(lam) erfc(|lam| sqrt(s)),

so eta = sum_j a_j sgn(lam_j) erfc(|lam_j| sqrt(s)) integrated from a lower
heat time s, and sum_j a_j sgn(lam_j) from s = 0.

Truncated spectra need one extra piece of care. The infinite trace is
exponentially small as s -> 0 (modes cancel), but a finite truncation stops
cancelling once s is small against 1/Lambda^2, and integrating from 0 then
picks up a pure truncation artifact (for a 4001-mode circle it shifts eta
by 0.5). The integral therefore starts at the resolved floor
s_f = 40/Lambda^2 whenever (a) the floor is at most 1/4 and (b) a
cancellation detector confirms the trace is already negligible there
relative to its absolute-value envelope sum_j |a_j lam_j| e^{-lam_j^2 s}.
The skipped segment's resolved magnitude goes into est_error, and the
omitted-mode scale is reported separately as truncation_error via the
spectral tail bound at 40/Lambda^2.

The floor is analysed once per spectrum: one heat-trace pass decides it and
prices the skipped segment, and that FloorAnalysis serves every query. The
erfc(|lam_j| sqrt(s_f)) array is made once per spectrum too, and kept with
it as spectrum.modes. eta does not depend on any collar, so its sum, the
roundoff of that sum and truncation_error are made by the spectrum's first
eta query and kept as three scalars in spectrum.collar_free; every later
eta_invariant, aps_index or contribution reads them in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._json import JsonFields
from .errors import DomainError
from .spectral import BoundarySpectrum, _kept, tail_bound

__all__ = [
    "EtaResult",
    "heat_trace",
    "eta_invariant",
    "eta_circle_oracle",
]

# Relative roundoff priced into est_error per unit of sum_j |term_j|.
_ROUNDOFF = 4e-16


def heat_trace(spectrum: BoundarySpectrum, s: float) -> complex:
    """Tr(g e^{-s D^2} D) = sum_j a_j lam_j e^{-s lam_j^2}."""
    if not s > 0:
        raise DomainError(f"heat time must be positive, got {s!r}")
    lams = spectrum.lams
    return complex((spectrum.traces * (lams * np.exp(-s * lams * lams))).sum())


def _roundoff(terms: np.ndarray) -> float:
    """Roundoff envelope of summing the given per-mode terms."""
    return _ROUNDOFF * float(np.abs(terms).sum())


@dataclass(frozen=True)
class EtaResult(JsonFields):
    """Closed-form eta value. est_error covers roundoff and the skipped
    segment below the resolved floor on the listed modes; truncation_error
    is the separate spectral-tail scale for modes beyond the cutoff."""

    value: complex
    est_error: float
    truncation_error: float


def _eta_sums(spectrum: BoundarySpectrum) -> tuple[complex, float, float]:
    """eta's value, the roundoff of its sum and its truncation_error."""
    modes = spectrum.modes
    terms = spectrum.traces * modes.sgn
    if modes.erfc is not None:
        terms = terms * modes.erfc
    trunc = tail_bound(spectrum, spectrum.floor_analysis.candidate, 0.0).bound
    return complex(terms.sum()), _roundoff(terms), trunc


def eta_invariant(spectrum: BoundarySpectrum) -> EtaResult:
    """eta = sum_j a_j sgn(lam_j) erfc(|lam_j| sqrt(s_f)), with s_f the
    resolved floor, or sum_j a_j sgn(lam_j) when the floor is refused.

    The sums are made on the spectrum's first query and kept. All-real
    traces give an exactly real value, so identity-like group elements
    stay exactly real.
    """
    value, roundoff, trunc = _kept(spectrum, "eta", _eta_sums)
    est = roundoff + spectrum.floor_analysis.skipped_segment
    return EtaResult(value=value, est_error=est, truncation_error=trunc)


def eta_circle_oracle(twist: float) -> float:
    """Closed form for the twisted circle with identity group element: 1 - 2 twist.

    Comes from zeta-regularizing sum sgn(n + a) |n + a|^{-z} at z = 0 with
    the Hurwitz values zeta_H(0, a) = 1/2 - a and the reflection a <-> 1 - a;
    the test suite re-derives it from an independent Hurwitz-zeta evaluation.
    """
    twist = float(twist)
    if not (0.0 < twist < 1.0):
        raise DomainError(f"twist must lie in (0, 1), got {twist!r}")
    return 1.0 - 2.0 * twist
