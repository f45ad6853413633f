"""Index bookkeeping on top of the contribution and eta modules.

The index of an operator that is invertible outside a compact set splits as
ind = (interior characteristic-form integral) + (contribution from
infinity). The interior term needs geometric data this model does not
carry, so it enters as a caller-supplied number; everything
boundary-spectral is computed here. Two assembly routes exist:

* assemble_index adds the caller's interior term to a computed
  ContributionReport;
* aps_index bypasses the collar integral and uses ind = as_term - eta/2
  directly.

Their agreement, within the reported error budgets, is the cylinder case
of the index identity the rest of the package verifies piecewise.

Indices are reported as complex numbers and never rounded: for a
non-identity group element the equivariant index character is genuinely
non-integral. When the caller states that the group element is the
identity, the distance to the nearest Gaussian integer is recorded as a
bookkeeping check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._json import JsonFields
from .contribution import ContributionReport, contribution
from .errors import DomainError
from .eta import eta_invariant
from .spectral import BoundarySpectrum

__all__ = [
    "IndexReport",
    "assemble_index",
    "aps_index",
    "relative_index_check",
]


@dataclass(frozen=True)
class IndexReport(JsonFields):
    """Assembled index value with its two constituents.

    index_value == as_term + contribution holds exactly by construction.
    est_error bounds the numerical error of index_value: the
    contribution's est_error, or half of eta's on the aps route.
    integrality_residual is None unless the computation was flagged as
    using the identity group element, in which case it is the distance of
    index_value to the nearest Gaussian integer.
    """

    as_term: complex
    contribution: complex
    index_value: complex
    eta_half: complex
    est_error: float
    integrality_residual: float | None


def _gaussian_integer_distance(z: complex) -> float:
    return math.hypot(z.real - round(z.real), z.imag - round(z.imag))


def assemble_index(as_term: complex, report: ContributionReport,
                   g_is_identity: bool = False) -> IndexReport:
    """ind = as_term + A_g(a') from an already-computed contribution."""
    if not isinstance(report, ContributionReport):
        raise DomainError("report must be a ContributionReport")
    as_term = complex(as_term)
    index_value = as_term + report.direct_value
    residual = _gaussian_integer_distance(index_value) if g_is_identity \
        else None
    return IndexReport(
        as_term=as_term,
        contribution=report.direct_value,
        index_value=index_value,
        eta_half=0.5 * report.eta_reference,
        est_error=report.est_error,
        integrality_residual=residual)


def aps_index(spectrum: BoundarySpectrum, as_term: complex,
              g_is_identity: bool | None = None) -> IndexReport:
    """ind = as_term - eta/2, skipping the collar integral entirely.

    With g_is_identity=None the identity case is auto-detected from the
    spectrum: every stored trace equal to its multiplicity.
    """
    as_term = complex(as_term)
    eta_res = eta_invariant(spectrum)
    eta_half = 0.5 * eta_res.value
    contribution_value = -eta_half
    index_value = as_term + contribution_value
    if g_is_identity is None:
        g_is_identity = bool((spectrum.traces == spectrum.multiplicity).all())
    residual = _gaussian_integer_distance(index_value) if g_is_identity \
        else None
    return IndexReport(
        as_term=as_term,
        contribution=contribution_value,
        index_value=index_value,
        eta_half=eta_half,
        est_error=0.5 * eta_res.est_error,
        integrality_residual=residual)


def relative_index_check(spec1: BoundarySpectrum, as1: complex,
                         spec2: BoundarySpectrum, as2: complex,
                         a_prime: float) -> complex:
    """(ind_1 - ind_2) - (as_1 - as_2), which is A_1(a') - A_2(a').

    Operators agreeing outside their compact sets share a boundary
    spectrum, so for spec1 == spec2 the contributions cancel and the
    relative index reduces to the difference of interior terms; this
    function returns the defect of that cancellation.
    """
    as1 = complex(as1)
    as2 = complex(as2)
    r1 = contribution(spec1, a_prime)
    r2 = contribution(spec2, a_prime)
    ind1 = as1 + r1.direct_value
    ind2 = as2 + r2.direct_value
    return (ind1 - ind2) - (as1 - as2)
