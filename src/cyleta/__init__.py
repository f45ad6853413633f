"""Delocalised eta invariants and cylindrical-end index contributions.

The package models the boundary data of a Dirac-type operator on a
manifold with a cylindrical end by its spectrum with equivariant trace
weights, and computes from it, one closed-form heat-time integral per
mode, the delocalised eta invariant, the contribution from infinity that
enters index formulas, its Dirichlet variant and the index. Each quantity
has one public function, which returns it with its error budget.
The index too is one function, aps_index: as_term - f1 eta/2, the
interior term plus the contribution. Verification entry points check the
half-line heat-kernel identities on compiled-in grids and the vanishing
integral with its dominated-convergence certificate. Helpers that a
caller need not name (the kernels, the vanishing dominator, the
certificate-failure and truncation-bound records) stay in their modules
and are not exported here.
"""

from ._version import __version__
from .assembly import IndexReport, aps_index, relative_index_check
from .contribution import (ContributionReport, Estimate, contribution,
                           dirichlet_variant_contribution)
from .errors import (CyletaError, DomainError, InvalidSpectrumError,
                     InvalidTraceError, VerificationError)
from .eta import EtaResult, eta_invariant
from .identities import (DeviationReport, verify_boundary_vanish,
                         verify_decomposition, verify_not_feel_boundary)
from .spectral import (BoundarySpectrum, FloorAnalysis, circle_spectrum,
                       direct_sum, dump_spectrum, from_records, load_spectrum,
                       spectrum_from_json_dict, spectrum_to_json_dict,
                       tail_bound)
from .vanishing import (VanishingReport, VanishingTermConfig,
                        vanishing_term_detailed, verify_vanishing)

__all__ = [
    "__version__",
    "CyletaError",
    "InvalidSpectrumError",
    "InvalidTraceError",
    "DomainError",
    "VerificationError",
    "BoundarySpectrum",
    "FloorAnalysis",
    "circle_spectrum",
    "from_records",
    "direct_sum",
    "tail_bound",
    "spectrum_from_json_dict",
    "spectrum_to_json_dict",
    "load_spectrum",
    "dump_spectrum",
    "DeviationReport",
    "verify_decomposition",
    "verify_boundary_vanish",
    "verify_not_feel_boundary",
    "EtaResult",
    "eta_invariant",
    "VanishingTermConfig",
    "VanishingReport",
    "vanishing_term_detailed",
    "verify_vanishing",
    "Estimate",
    "ContributionReport",
    "contribution",
    "dirichlet_variant_contribution",
    "IndexReport",
    "aps_index",
    "relative_index_check",
]
