"""Spectral data of the boundary operator.

Everything downstream (heat traces, eta invariants, contribution integrals)
consumes a finite list of eigenvalue records: the eigenvalue itself, the
dimension of its eigenspace, and the trace of the group element g restricted
to that eigenspace. This module defines the records, the container with its
growth metadata, constructors (an explicit twisted-circle model, raw record
lists, JSON files), a direct sum, and the truncation-tail estimator that
turns the growth metadata into a quantitative bound on everything the
omitted modes could contribute.

Conventions baked into the container:

* eigenvalues are nonzero (data describes an invertible operator; there is
  no spectral-shift fallback),
* records are sorted by |lambda| non-decreasing, ties broken negative
  first, so serialized output is deterministic,
* growth metadata (c1, c2, c3, c4) asserts |lambda_j| >= c1 * j**c2 and
  |trace_j| <= c3 * j**c4 for the 1-based rank j; it is used only for tail
  bounds, never to synthesize eigenvalues.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np
from scipy import special

from .errors import DomainError, InvalidSpectrumError, InvalidTraceError

__all__ = [
    "SpectralDatum",
    "BoundarySpectrum",
    "TruncationBound",
    "circle_spectrum",
    "from_records",
    "direct_sum",
    "tail_bound",
    "load_spectrum",
    "dump_spectrum",
    "spectrum_from_json_dict",
    "spectrum_to_json_dict",
]

# Relative slack for float comparisons of stored invariants. File round trips
# go through shortest round-trip decimals, so exact inequalities only need
# protection against a few ulps.
_SLACK = 1e-12

_COALESCE_TOL = 1e-12

# Candidate growth exponents when fitting metadata to raw records: 1/dim for
# boundary dimensions 1 through 4.
_C2_CANDIDATES = (1.0, 0.5, 1.0 / 3.0, 0.25)


@dataclass(frozen=True)
class SpectralDatum:
    """One eigenvalue record: eigenvalue, eigenspace dimension, g-trace.

    The attribute is named ``lam`` because ``lambda`` is reserved in Python;
    the JSON key remains "lambda".
    """

    lam: float
    multiplicity: int
    trace_g: complex

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "trace_g", complex(self.trace_g))
        if not math.isfinite(self.lam):
            raise InvalidSpectrumError(f"eigenvalue must be finite, got {self.lam!r}")
        if self.lam == 0.0:
            raise InvalidSpectrumError(
                "zero eigenvalue: the data must describe an invertible operator")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise InvalidSpectrumError(
                f"multiplicity must be a positive integer, got {self.multiplicity!r}")
        if not (math.isfinite(self.trace_g.real) and math.isfinite(self.trace_g.imag)):
            raise InvalidTraceError(f"trace must be finite, got {self.trace_g!r}")
        if abs(self.trace_g) > self.multiplicity * (1.0 + _SLACK) + _SLACK:
            raise InvalidTraceError(
                f"|trace| = {abs(self.trace_g):.17g} exceeds multiplicity "
                f"{self.multiplicity}; no unitary restriction produces that")


def _sort_key(d: SpectralDatum):
    # |lambda| ascending, negative eigenvalue first on ties
    return (abs(d.lam), 0 if d.lam < 0 else 1)


@dataclass(frozen=True)
class BoundarySpectrum:
    """Sorted eigenvalue records plus growth metadata and the truncation cutoff.

    truncated_at is the largest Lambda for which the list is complete: every
    eigenvalue with |lambda| <= Lambda appears, none below it is omitted.
    Individual records may exceed it (a complete list can contain part of
    the next band).
    """

    data: tuple[SpectralDatum, ...]
    weyl_c1: float
    weyl_c2: float
    trace_bound_c3: float
    trace_bound_c4: float
    truncated_at: float

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if not self.data:
            raise InvalidSpectrumError("spectrum must contain at least one record")
        for prev, cur in zip(self.data, self.data[1:]):
            if _sort_key(prev) > _sort_key(cur):
                raise InvalidSpectrumError(
                    "records must be sorted by |lambda| non-decreasing, "
                    "negative eigenvalue first on ties")
        if not (self.weyl_c1 > 0 and self.weyl_c2 > 0):
            raise InvalidSpectrumError("growth constants c1, c2 must be positive")
        if not (self.trace_bound_c3 > 0 and self.trace_bound_c4 >= 0):
            raise InvalidSpectrumError("trace bound constants need c3 > 0, c4 >= 0")
        if not (self.truncated_at > 0):
            raise InvalidSpectrumError("truncation cutoff must be positive")
        for j, d in enumerate(self.data, start=1):
            if abs(d.lam) < self.weyl_c1 * j**self.weyl_c2 * (1.0 - _SLACK):
                raise InvalidSpectrumError(
                    f"growth bound violated at rank {j}: |{d.lam!r}| < "
                    f"{self.weyl_c1!r} * {j}**{self.weyl_c2!r}")
            if abs(d.trace_g) > self.trace_bound_c3 * j**self.trace_bound_c4 \
                    * (1.0 + _SLACK) + _SLACK:
                raise InvalidSpectrumError(
                    f"trace bound violated at rank {j}: |{d.trace_g!r}| > "
                    f"{self.trace_bound_c3!r} * {j}**{self.trace_bound_c4!r}")

    @property
    def gap(self) -> float:
        """Spectral gap b: the smallest |eigenvalue|."""
        return abs(self.data[0].lam)

    def rank_below(self, cutoff: float) -> int:
        """Number of records with |lambda| <= cutoff."""
        return sum(1 for d in self.data if abs(d.lam) <= cutoff)

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class TruncationBound:
    """Certified upper bound on what the omitted modes (|lambda| beyond the
    cutoff) can contribute to any heat-time integrand at times >= s_min."""

    cutoff: float
    s_min: float
    bound: float


@functools.lru_cache(maxsize=64)
def _as_arrays(spectrum: BoundarySpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, traces) as numpy arrays, in stored order.

    Cached per spectrum instance; callers must treat the arrays as
    read-only.
    """
    lams = np.array([d.lam for d in spectrum.data], dtype=float)
    traces = np.array([d.trace_g for d in spectrum.data], dtype=complex)
    return lams, traces


def circle_spectrum(twist: float, rotation_angle: float, n_max: int) -> BoundarySpectrum:
    """Twisted circle model: eigenvalues n + twist for |n| <= n_max.

    A rotation by rotation_angle acts on the n-th Fourier mode with trace
    exp(-i n rotation_angle); every eigenspace is one-dimensional. The gap
    is min(twist, 1 - twist), and the growth metadata uses the square-root
    envelope c2 = 1/2 (eigenvalues grow linearly in rank but rank counts
    both signs). c1 is the gap except when the gap exceeds 1/(1 + sqrt 2),
    where the rank-2 eigenvalue sits below gap * sqrt 2 and c1 must shrink
    to keep the stored inequality true on every datum. The list is
    complete below n_max + 1 - twist.
    """
    twist = float(twist)
    if not (0.0 < twist < 1.0):
        raise InvalidSpectrumError(
            f"twist must lie strictly inside (0, 1), got {twist!r}; the endpoints "
            "produce a zero eigenvalue")
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    data = [
        SpectralDatum(n + twist, 1, cmath.exp(-1j * n * rotation_angle))
        for n in range(-n_max, n_max + 1)
    ]
    data.sort(key=_sort_key)
    gap = min(twist, 1.0 - twist)
    c1 = min(abs(d.lam) / math.sqrt(j) for j, d in enumerate(data, start=1))
    return BoundarySpectrum(
        data=tuple(data),
        weyl_c1=c1,
        weyl_c2=0.5,
        trace_bound_c3=1.0,
        trace_bound_c4=0.0,
        truncated_at=n_max + 1 - twist,
    )


def _fit_weyl(data: Sequence[SpectralDatum]) -> tuple[float, float, float, float]:
    """Largest c1 over the candidate exponents c2, plus a flat trace bound."""
    best_c1, best_c2 = -math.inf, _C2_CANDIDATES[0]
    for c2 in _C2_CANDIDATES:  # descending, so ties keep the larger exponent
        c1 = min(abs(d.lam) / j**c2 for j, d in enumerate(data, start=1))
        if c1 > best_c1:
            best_c1, best_c2 = c1, c2
    c3 = max(max(abs(d.trace_g) for d in data), 1e-12)
    return best_c1, best_c2, c3, 0.0


def from_records(records: Iterable[tuple]) -> BoundarySpectrum:
    """Build a spectrum from (lambda, multiplicity, trace_re, trace_im) rows.

    Rows are sorted, growth metadata is fitted to the data (largest c1 with
    c2 drawn from {1, 1/2, 1/3, 1/4}), and the truncation cutoff is the
    largest |lambda| present.
    """
    rows = list(records)
    if not rows:
        raise InvalidSpectrumError("records must be non-empty")
    data = []
    for i, row in enumerate(rows):
        try:
            lam, mult, tre, tim = row
        except (TypeError, ValueError):
            raise InvalidSpectrumError(
                f"record {i} must be (lambda, multiplicity, trace_re, trace_im), "
                f"got {row!r}") from None
        data.append(SpectralDatum(lam, mult, complex(tre, tim)))
    data.sort(key=_sort_key)
    c1, c2, c3, c4 = _fit_weyl(data)
    return BoundarySpectrum(
        data=tuple(data),
        weyl_c1=c1, weyl_c2=c2, trace_bound_c3=c3, trace_bound_c4=c4,
        truncated_at=max(abs(d.lam) for d in data),
    )


def direct_sum(a: BoundarySpectrum, b: BoundarySpectrum) -> BoundarySpectrum:
    """Merge two spectra; eigenvalues within 1e-12 of each other coalesce by
    adding multiplicities and traces.

    The merged list is re-ranked, so the growth metadata is refitted to the
    merged data rather than inherited. The result is only complete below the
    smaller of the two cutoffs.
    """
    merged: list[SpectralDatum] = []
    for d in sorted(list(a.data) + list(b.data), key=lambda d: d.lam):
        if merged and abs(merged[-1].lam - d.lam) <= _COALESCE_TOL:
            prev = merged[-1]
            merged[-1] = SpectralDatum(
                prev.lam, prev.multiplicity + d.multiplicity,
                prev.trace_g + d.trace_g)
        else:
            merged.append(d)
    merged.sort(key=_sort_key)
    c1, c2, c3, c4 = _fit_weyl(merged)
    return BoundarySpectrum(
        data=tuple(merged),
        weyl_c1=c1, weyl_c2=c2, trace_bound_c3=c3, trace_bound_c4=c4,
        truncated_at=min(a.truncated_at, b.truncated_at),
    )


def _monomial_tail(coeff: float, p: float, q: float, beta: float,
                   start: float) -> float:
    """Upper bound for sum_{j >= start} coeff j^p exp(-beta j^q).

    The summand is unimodal in j, so the sum is at most the integral over
    [start, inf) plus the supremum on that range: the increasing stretch is
    covered by right-endpoint rectangles, the decreasing one by
    left-endpoint rectangles, and the crossover costs one extra summand.
    The integral has the closed form (coeff/q) beta^{-(p+1)/q}
    Gamma_upper((p+1)/q, beta start^q). Returns +infinity when the value
    would overflow, which is the divergence report for s_min -> 0.
    """
    if beta <= 0.0:
        return math.inf
    shape = (p + 1.0) / q
    log_integral_cap = (math.log(coeff) - math.log(q)
                        - shape * math.log(beta) + math.lgamma(shape))
    if log_integral_cap > 700.0:
        return math.inf
    y = beta * start**q
    integral = math.exp(log_integral_cap) * float(special.gammaincc(shape, y))

    x_at = start
    if p > 0.0:
        x_at = max(start, (p / (q * beta)) ** (1.0 / q))
    log_sup = math.log(coeff) + p * math.log(x_at) - beta * x_at**q
    if log_sup > 700.0:
        return math.inf
    return integral + math.exp(log_sup)


def tail_bound(spectrum: BoundarySpectrum, s_min: float,
               a_prime: float = 0.0) -> TruncationBound:
    """Majorant for everything the modes beyond the cutoff could add.

    Bounds sum_{j > rank(cutoff)} c3 j^c4 (c1 j^c2 + a_prime/s_min + 1)
    exp(-(c1 j^c2)^2 s_min) in closed form through upper incomplete gamma
    functions (one per bracket term, each padded by the term's supremum so
    the integral comparison is a true overestimate). The bracket dominates
    each omitted mode's possible integrand value at heat times >= s_min
    (eigenvalue factor, boundary-distance factor, constant), given the
    stored growth metadata. Reports +infinity when the value overflows,
    which is how the s_min -> 0 divergence surfaces.

    a_prime = 0 is allowed (the eta integrand has no boundary distance).
    """
    if not (s_min > 0):
        raise DomainError(f"s_min must be positive, got {s_min!r}")
    if a_prime < 0:
        raise DomainError(f"a_prime must be nonnegative, got {a_prime!r}")
    c1, c2 = spectrum.weyl_c1, spectrum.weyl_c2
    c3, c4 = spectrum.trace_bound_c3, spectrum.trace_bound_c4
    cutoff = spectrum.truncated_at
    start = float(spectrum.rank_below(cutoff) + 1)
    beta = c1 * c1 * s_min
    q = 2.0 * c2

    eigen_part = _monomial_tail(c3 * c1, c4 + c2, q, beta, start)
    flat_part = _monomial_tail(c3 * (a_prime / s_min + 1.0), c4, q, beta,
                               start)
    return TruncationBound(cutoff=cutoff, s_min=s_min,
                           bound=eigen_part + flat_part)


# ---------------------------------------------------------------------------
# JSON ingestion. Format: {"data": [{"lambda": r, "multiplicity": n,
# "trace": [re, im]}, ...], "weyl": {"c1": r, "c2": r, "c3": r, "c4": r},
# "truncated_at": r}, with "weyl" optional (fitted from the data when absent)
# and "truncated_at" optional (the largest |lambda| when absent).

def spectrum_from_json_dict(doc: dict) -> BoundarySpectrum:
    if not isinstance(doc, dict) or "data" not in doc:
        raise InvalidSpectrumError('spectrum JSON must be an object with a "data" array')
    raw = doc["data"]
    if not isinstance(raw, list) or not raw:
        raise InvalidSpectrumError('"data" must be a non-empty array')
    data = []
    for i, rec in enumerate(raw):
        label = f"data[{i}]"
        if not isinstance(rec, dict):
            raise InvalidSpectrumError(f"{label}: record must be an object")
        try:
            lam = rec["lambda"]
            mult = rec["multiplicity"]
            trace = rec["trace"]
        except KeyError as missing:
            raise InvalidSpectrumError(f"{label}: missing key {missing}") from None
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            raise InvalidSpectrumError(f"{label}: lambda must be a number")
        if not isinstance(mult, int) or isinstance(mult, bool):
            raise InvalidSpectrumError(f"{label}: multiplicity must be an integer")
        if (not isinstance(trace, list) or len(trace) != 2
                or not all(isinstance(t, (int, float)) and not isinstance(t, bool)
                           for t in trace)):
            raise InvalidSpectrumError(f"{label}: trace must be [re, im]")
        try:
            data.append(SpectralDatum(float(lam), mult, complex(trace[0], trace[1])))
        except InvalidSpectrumError as exc:
            raise type(exc)(f"{label}: {exc}") from None
    data.sort(key=_sort_key)
    weyl = doc.get("weyl")
    if weyl is None:
        c1, c2, c3, c4 = _fit_weyl(data)
    else:
        try:
            c1, c2 = float(weyl["c1"]), float(weyl["c2"])
            c3, c4 = float(weyl["c3"]), float(weyl["c4"])
        except (KeyError, TypeError, ValueError):
            raise InvalidSpectrumError(
                '"weyl" must be an object with numeric c1, c2, c3, c4') from None
    cutoff = doc.get("truncated_at")
    if cutoff is None:
        cutoff = max(abs(d.lam) for d in data)
    return BoundarySpectrum(
        data=tuple(data),
        weyl_c1=c1, weyl_c2=c2, trace_bound_c3=c3, trace_bound_c4=c4,
        truncated_at=float(cutoff),
    )


def spectrum_to_json_dict(spectrum: BoundarySpectrum) -> dict:
    return {
        "data": [
            {
                "lambda": d.lam,
                "multiplicity": d.multiplicity,
                "trace": [d.trace_g.real, d.trace_g.imag],
            }
            for d in spectrum.data
        ],
        "weyl": {
            "c1": spectrum.weyl_c1,
            "c2": spectrum.weyl_c2,
            "c3": spectrum.trace_bound_c3,
            "c4": spectrum.trace_bound_c4,
        },
        "truncated_at": spectrum.truncated_at,
    }


def load_spectrum(path: Union[str, Path]) -> BoundarySpectrum:
    """Read a spectrum from a JSON file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpectrumError(f"{path}: not valid JSON ({exc})") from None
    return spectrum_from_json_dict(doc)


def dump_spectrum(spectrum: BoundarySpectrum, path: Union[str, Path]) -> None:
    """Write a spectrum to a JSON file in the documented format."""
    doc = spectrum_to_json_dict(spectrum)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
