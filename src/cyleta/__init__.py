"""Delocalised eta invariants and cylindrical-end index contributions.

The package models the boundary data of a Dirac-type operator on a
manifold with a cylindrical end by its spectrum with equivariant trace
weights, evaluates the half-line heat kernels of the flat cylinder in
closed form, and computes from them the delocalised eta invariant and the
contribution from infinity that enters index formulas. Verification
entry points check the kernel identities, the vanishing integral with its
dominated-convergence certificate, and the agreement of the two index
assembly routes.
"""

from ._version import __version__
from .assembly import IndexReport, aps_index, assemble_index, relative_index_check
from .contribution import (ContributionReport, Estimate, contribution,
                           dirichlet_variant_contribution)
from .errors import (CyletaError, DomainError, InvalidSpectrumError,
                     InvalidTraceError, VerificationError)
from .eta import EtaResult, eta_circle_oracle, eta_invariant, heat_trace
from .identities import (BOUNDARY_GRID, DECOMPOSITION_GRID, DeviationReport,
                         KernelGrid, verify_boundary_vanish,
                         verify_decomposition, verify_not_feel_boundary)
from .kernels import (ModePoint, aps_mode_kernel, dirichlet_lambda_combination,
                      dirichlet_mode_kernel, full_line_mode_kernel,
                      lambda_mode_kernel)
from .spectral import (BoundarySpectrum, FloorAnalysis,
                       TruncationBound, circle_spectrum, direct_sum,
                       dump_spectrum, from_records, load_spectrum,
                       spectrum_from_json_dict, spectrum_to_json_dict,
                       tail_bound)
from .vanishing import (CertificateFailure, VanishingReport,
                        VanishingTermConfig, dominator, per_mode_difference,
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
    "TruncationBound",
    "circle_spectrum",
    "from_records",
    "direct_sum",
    "tail_bound",
    "spectrum_from_json_dict",
    "spectrum_to_json_dict",
    "load_spectrum",
    "dump_spectrum",
    "ModePoint",
    "full_line_mode_kernel",
    "dirichlet_mode_kernel",
    "aps_mode_kernel",
    "lambda_mode_kernel",
    "dirichlet_lambda_combination",
    "KernelGrid",
    "DeviationReport",
    "DECOMPOSITION_GRID",
    "BOUNDARY_GRID",
    "verify_decomposition",
    "verify_boundary_vanish",
    "verify_not_feel_boundary",
    "EtaResult",
    "heat_trace",
    "eta_invariant",
    "eta_circle_oracle",
    "VanishingTermConfig",
    "VanishingReport",
    "CertificateFailure",
    "vanishing_term_detailed",
    "per_mode_difference",
    "dominator",
    "verify_vanishing",
    "Estimate",
    "ContributionReport",
    "contribution",
    "dirichlet_variant_contribution",
    "IndexReport",
    "assemble_index",
    "aps_index",
    "relative_index_check",
]
