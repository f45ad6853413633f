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
prices the skipped segment, and that FloorAnalysis serves every query. eta
does not depend on any collar, so its sum, the roundoff of that sum and
truncation_error are made by the spectrum's first eta query and kept as
three scalars in spectrum.collar_free; every later eta_invariant,
aps_index, contribution or Dirichlet variant reads them in O(1), the
contribution as -f1 eta/2 and the Dirichlet variant with one per-mode sum
added. The erfc(|lam_j| sqrt(s_f)) pass of that first query runs once
per spectrum, one block of modes at a time with a partial sum per block,
and no array of it is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._json import JsonFields
from ._special import erfc
from .spectral import BoundarySpectrum, _blocks, _kept, tail_bound

__all__ = [
    "EtaResult",
    "eta_invariant",
]

# Relative roundoff priced into est_error per unit of sum_j |term_j|.
_ROUNDOFF = 4e-16


@dataclass(frozen=True)
class EtaResult(JsonFields):
    """Closed-form eta value. est_error covers roundoff and the skipped
    segment below the resolved floor on the listed modes; truncation_error
    is the separate spectral-tail scale for modes beyond the cutoff."""

    value: complex
    est_error: float
    truncation_error: float


def _eta_sums(spectrum: BoundarySpectrum) -> tuple[complex, float, float]:
    """eta's value, the roundoff of its sum and its truncation_error, from
    the spectrum's one erfc pass, block by block, which is not kept."""
    lams, traces = spectrum.lams, spectrum.traces
    floor, value, size = spectrum.floor_analysis.floor, 0j, 0.0
    for b in _blocks(lams.size):
        lam = lams[b]
        terms = traces[b] * (np.sign(lam) if floor is None else np.copysign(
            erfc(np.abs(lam) * math.sqrt(floor)), lam))
        value += complex(terms.sum())
        size += float(np.abs(terms).sum())
    trunc = tail_bound(spectrum, spectrum.floor_analysis.candidate, 0.0).bound
    return value, _ROUNDOFF * size, trunc


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

