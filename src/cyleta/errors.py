"""Exception types shared across the package."""

__all__ = ["CyletaError", "InvalidSpectrumError", "InvalidTraceError",
           "DomainError", "VerificationError"]


class CyletaError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpectrumError(CyletaError, ValueError):
    """Spectral data violates a structural invariant (zero eigenvalue,
    unsorted input that cannot be repaired, bad growth constants, ...)."""


class InvalidTraceError(InvalidSpectrumError):
    """A trace exceeds what a unitary on a space of the stated dimension
    can produce (|trace| > multiplicity)."""


class DomainError(CyletaError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class VerificationError(CyletaError, RuntimeError):
    """A verified identity failed beyond its tolerance.

    Carries whatever structured evidence the verifier produced (a deviation
    report, the offending row) so callers can serialize it.
    """

    def __init__(self, message: str, evidence=None):
        super().__init__(message)
        self.evidence = evidence
