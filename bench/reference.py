"""Closed-form values the benchmark checks cyleta's outputs against.

Nothing here imports cyleta, so a fault in the program cannot leak into
its own reference. Every check returns a list of violations; an empty
list means the output is right.

All references are for the twisted circle, eigenvalues n + a for
|n| <= n_max, where a rotation by theta acts on mode n with trace
e^{-i n theta}:

* eta = 1 - 2a when theta = 0 (Hurwitz zeta values at 0), and
  eta = 1 - i cot(theta/2) when theta lies in (0, 2 pi), from the Lerch
  value Phi(z, 0, a) = 1/(1 - z); it does not depend on the twist.
* The contribution from infinity is -eta/2 for every collar a'
  (Atiyah-Patodi-Singer).
* The Dirichlet variant is -eta/2 - sum_{lam_j < 0} a_j e^{-2a'|lam_j|}
  = -eta/2 - e^{2a'a} q/(1 - q) with q = e^{i theta - 2a'}; the modes
  beyond n_max change it by about e^{-2a' n_max}, below 1e-80 for the
  collars and sizes the benchmark uses.
"""

from __future__ import annotations

import cmath
import math

# Fixed absolute tolerances. The measured gaps are below 1e-12 at every
# size the benchmark runs; a value off by 1e-9 must fail.
ETA_TOL = 1e-10
VALUE_TOL = 1e-10


def circle_eta(twist: float, angle: float) -> complex:
    """Eta invariant of the twisted circle."""
    if angle == 0.0:
        return complex(1.0 - 2.0 * twist)
    return complex(1.0, -1.0 / math.tan(angle / 2.0))


def circle_dirichlet(twist: float, angle: float, a_prime: float) -> complex:
    """The Dirichlet variant A^F(a') of the twisted circle."""
    q = cmath.exp(complex(-2.0 * a_prime, angle))
    return -0.5 * circle_eta(twist, angle) \
        - math.exp(2.0 * a_prime * twist) * q / (1.0 - q)


def _close(label: str, got: complex, want: complex, tol: float) -> list[str]:
    gap = abs(complex(got) - complex(want))
    if gap <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} (gap {gap:.3g} > {tol:.3g})"]


def check_eta(value: complex, twist: float, angle: float) -> list[str]:
    return _close("eta", value, circle_eta(twist, angle), ETA_TOL)


def check_eta_sum(value: complex, parts: list[tuple[float, float]]) -> list[str]:
    """eta of a direct sum equals the sum of the parts' eta."""
    want = sum(circle_eta(t, a) for t, a in parts)
    return _close("eta of direct sum", value, want, ETA_TOL)


def check_contribution(direct: complex, decomposed: complex,
                       vanishing_residual: complex, est_error: float,
                       twist: float, angle: float) -> list[str]:
    """The direct value is -eta/2 to the fixed tolerance; the decomposed
    value and the vanishing residual (exactly 0) lie within the reported
    error estimate, which is the property every estimate must have."""
    want = -0.5 * circle_eta(twist, angle)
    return (_close("contribution direct", direct, want, VALUE_TOL)
            + _close("contribution decomposed", decomposed, want, est_error)
            + _close("vanishing residual", vanishing_residual, 0.0,
                     est_error))


def check_vanishing(value: complex, est_error: float) -> list[str]:
    return _close("vanishing term", value, 0.0, est_error)


def check_dirichlet(value: complex, twist: float, angle: float,
                    a_prime: float) -> list[str]:
    return _close("dirichlet variant", value,
                  circle_dirichlet(twist, angle, a_prime), VALUE_TOL)


def check_index(value: complex, as_term: complex, twist: float,
                angle: float) -> list[str]:
    """The APS route: ind = as_term - eta/2."""
    return _close("index", value, as_term - 0.5 * circle_eta(twist, angle),
                  VALUE_TOL)


def check_relative(value: complex, twist_1: float, twist_2: float) -> list[str]:
    """Relative index defect of two untwisted-rotation circles: a1 - a2."""
    return _close("relative", value, twist_1 - twist_2, VALUE_TOL)


def check_passed(command: str, returncode: int, doc: dict) -> list[str]:
    """A verify-* command must exit 0 and report passed: true."""
    result = doc.get("result") or {}
    if returncode == 0 and result.get("passed") is True:
        return []
    return [f"{command}: exit {returncode}, passed={result.get('passed')!r}"]
