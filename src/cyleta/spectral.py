"""Spectral data of the boundary operator.

Everything downstream (heat traces, eta invariants, contribution integrals)
consumes a finite list of modes: the eigenvalue, the dimension of its
eigenspace, and the trace of the group element g restricted to that
eigenspace. BoundarySpectrum stores them as three read-only numpy arrays,
lams (float64), multiplicity (int64) and traces (complex128), plus growth
metadata and the truncation cutoff. This module defines the container,
constructors (an explicit twisted-circle model, raw record lists, JSON
files), a direct sum, and the truncation-tail estimator that turns the
growth metadata into a quantitative bound on everything the omitted modes
could contribute. Constructors build and check whole arrays; no per-mode
record object exists.

Conventions baked into the container:

* eigenvalues are nonzero (data describes an invertible operator; there is
  no spectral-shift fallback),
* modes are sorted by |lambda| non-decreasing, ties broken negative first,
  so serialized output is deterministic,
* growth metadata (c1, c2, c3, c4) asserts |lambda_j| >= c1 * j**c2 and
  |trace_j| <= c3 * j**c4 for the 1-based rank j; it is used only for tail
  bounds, never to synthesize eigenvalues,
* the arrays are private copies that cannot be written, and equality and
  hashing are those of the object; validation errors name the first
  offending record or rank,
* the first read of ``floor_analysis`` keeps a FloorAnalysis of scalars in
  the instance dict, the first read of ``modes`` keeps three read-only
  float64 arrays there (24 bytes a mode), and ``collar_free`` keeps the
  sums that no collar changes as Python scalars, each made by the first
  query that needs it; fields, arrays, equality and hashing stay as they
  are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Union

import numpy as np

from ._json import JsonFields
from ._special import erfc, gammaincc
from .errors import DomainError, InvalidSpectrumError, InvalidTraceError

__all__ = [
    "BoundarySpectrum",
    "FloorAnalysis",
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

# Multiplicities are stored as int64.
_INT64 = range(-2**63, 2**63)

# The resolved floor s_f = _FLOOR_SCALE / Lambda^2 is used only at or below
# _FLOOR_MAX, where |trace| <= _RESOLVED_RATIO * envelope must hold too.
_FLOOR_SCALE = 40.0
_FLOOR_MAX = 0.25
_RESOLVED_RATIO = 1e-6


def _raise_first(checks, label=None) -> None:
    """Raise error(i) for the lowest index i that a (mask, error) pair
    flags, the earlier pair on a tie; label(i) prefixes the message."""
    flagged = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks)
               if bad.any()]
    if flagged:
        i, k = min(flagged)
        exc = checks[k][1](i)
        raise type(exc)(f"{label(i)}: {exc}") if label else exc


def _record_checks(lams, multiplicity, traces) -> list:
    """The checks every single mode must pass, for _raise_first."""
    size = np.abs(traces)
    return [
        (~np.isfinite(lams), lambda i: InvalidSpectrumError(
            f"eigenvalue must be finite, got {float(lams[i])!r}")),
        (lams == 0.0, lambda i: InvalidSpectrumError(
            "zero eigenvalue: the data must describe an invertible operator")),
        (multiplicity < 1, lambda i: InvalidSpectrumError(
            f"multiplicity must be a positive integer, got {int(multiplicity[i])!r}")),
        (~np.isfinite(traces), lambda i: InvalidTraceError(
            f"trace must be finite, got {complex(traces[i])!r}")),
        (size > multiplicity * (1.0 + _SLACK) + _SLACK, lambda i: InvalidTraceError(
            f"|trace| = {float(size[i]):.17g} exceeds multiplicity "
            f"{int(multiplicity[i])}; no unitary restriction produces that")),
    ]


@dataclass(frozen=True, eq=False)
class BoundarySpectrum:
    """Sorted modes as read-only copies of the given arrays, plus growth
    metadata and the truncation cutoff.

    truncated_at is the largest Lambda for which the list is complete: every
    eigenvalue with |lambda| <= Lambda appears, none below it is omitted.
    Individual modes may exceed it (a complete list can contain part of the
    next band).
    """

    lams: np.ndarray
    multiplicity: np.ndarray
    traces: np.ndarray
    weyl_c1: float
    weyl_c2: float
    trace_bound_c3: float
    trace_bound_c4: float
    truncated_at: float

    def __post_init__(self):
        if np.asarray(self.multiplicity).dtype.kind not in "iu":
            raise InvalidSpectrumError("multiplicity must hold integers")
        for name, dtype in (("lams", np.float64), ("multiplicity", np.int64),
                            ("traces", np.complex128)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False  # and its view cannot undo that
            object.__setattr__(self, name, array.view())
        lams, mult, traces = self.lams, self.multiplicity, self.traces
        if lams.ndim != 1 or lams.shape != mult.shape or lams.shape != traces.shape:
            raise InvalidSpectrumError("lams, multiplicity and traces must be "
                                       "one-dimensional and of one length")
        if not lams.size:
            raise InvalidSpectrumError("spectrum must contain at least one record")
        _raise_first(_record_checks(lams, mult, traces), lambda i: f"rank {i + 1}")
        c1, c2 = self.weyl_c1, self.weyl_c2
        c3, c4 = self.trace_bound_c3, self.trace_bound_c4
        if not (c1 > 0 and c2 > 0):
            raise InvalidSpectrumError("growth constants c1, c2 must be positive")
        if not (c3 > 0 and c4 >= 0):
            raise InvalidSpectrumError("trace bound constants need c3 > 0, c4 >= 0")
        if not (self.truncated_at > 0):
            raise InvalidSpectrumError("truncation cutoff must be positive")
        abs_l, rank = np.abs(lams), np.arange(1.0, lams.size + 1.0)
        _raise_first([  # by rank; the pair i is ranks i + 1 and i + 2
            ((abs_l[1:] < abs_l[:-1]) | ((abs_l[1:] == abs_l[:-1])
                                        & (lams[:-1] > lams[1:])),
             lambda i: InvalidSpectrumError(
                 "records must be sorted by |lambda| non-decreasing, negative "
                 f"eigenvalue first on ties; ranks {i + 1} and {i + 2} are not")),
            (abs_l < c1 * rank**c2 * (1.0 - _SLACK), lambda i: InvalidSpectrumError(
                f"growth bound violated at rank {i + 1}: |{float(lams[i])!r}| < "
                f"{c1!r} * {i + 1}**{c2!r}")),
            (np.abs(traces) > c3 * rank**c4 * (1.0 + _SLACK) + _SLACK,
             lambda i: InvalidSpectrumError(
                 f"trace bound violated at rank {i + 1}: "
                 f"|{complex(traces[i])!r}| > {c3!r} * {i + 1}**{c4!r}")),
        ])

    @property
    def gap(self) -> float:
        """Spectral gap b: the smallest |eigenvalue|."""
        return abs(float(self.lams[0]))

    @cached_property
    def floor_analysis(self) -> FloorAnalysis:
        """The resolved-floor decision, made on the first read and kept."""
        return _analyse_floor(self)

    @cached_property
    def modes(self) -> _Modes:
        """The per-mode arrays of eta and the collar integrals, made on the
        first read and kept, so that every query shares one erfc pass."""
        return _mode_arrays(self)

    @cached_property
    def collar_free(self) -> dict:
        """The sums that no collar changes, by name, as Python scalars and
        tuples of them: eta's, the spectral kernel's collar-free terms and
        the identity flag. Each is made by the first query that needs it,
        through _kept(), and serves every later query in O(1); no per-mode
        array is kept here."""
        return {}

    def rank_below(self, cutoff: float) -> int:
        """Number of modes with |lambda| <= cutoff."""
        return int(self.modes.abs_l.searchsorted(cutoff, side="right"))

    def __len__(self) -> int:
        return self.lams.size


@dataclass(frozen=True)
class FloorAnalysis(JsonFields):
    """One heat-trace pass at the candidate floor 40/Lambda^2.

    floor is the candidate if it is at most 1/4 and cancellation_ratio,
    |sum_j a_j lam_j e^{-lam_j^2 s}| / sum_j |a_j lam_j| e^{-lam_j^2 s} at
    the candidate, is at most 1e-6; else None. skipped_segment, the price
    of eta's integrand on [0, floor], is (2/sqrt(pi)) |trace| sqrt(floor),
    or 0 with no floor. trace_mass is sum_j |a_j|.
    """

    floor: float | None
    candidate: float
    cancellation_ratio: float
    skipped_segment: float
    trace_mass: float


def _analyse_floor(spectrum: BoundarySpectrum) -> FloorAnalysis:
    """The FloorAnalysis of a spectrum, from one exp pass."""
    lams, size = spectrum.lams, np.abs(spectrum.traces)
    candidate = _FLOOR_SCALE / (spectrum.truncated_at * spectrum.truncated_at)
    damp = np.exp(-candidate * lams * lams)
    trace = abs(complex((spectrum.traces * (lams * damp)).sum()))
    envelope = float((size * np.abs(lams) * damp).sum())
    floor = candidate if candidate <= _FLOOR_MAX \
        and trace <= _RESOLVED_RATIO * envelope else None
    return FloorAnalysis(
        floor=floor, candidate=candidate,
        cancellation_ratio=trace / envelope if envelope else 0.0,
        skipped_segment=0.0 if floor is None
        else 2.0 / math.sqrt(math.pi) * trace * math.sqrt(floor),
        trace_mass=float(size.sum()))


def _kept(spectrum: BoundarySpectrum, name: str, compute):
    """spectrum.collar_free[name], made by compute(spectrum) on first use."""
    store = spectrum.collar_free
    if name not in store:
        store[name] = compute(spectrum)
    return store[name]


class _Modes(NamedTuple):
    """|lam|, sgn lam and erfc(|lam| sqrt(s_f)) at the resolved floor s_f,
    or None for erfc when the floor is refused; read-only arrays. These are
    the only per-mode arrays a spectrum keeps beside its own three."""

    abs_l: np.ndarray
    sgn: np.ndarray
    erfc: np.ndarray | None


def _mode_arrays(spectrum: BoundarySpectrum) -> _Modes:
    """The _Modes of a spectrum, from one erfc pass."""
    lams, floor = spectrum.lams, spectrum.floor_analysis.floor
    abs_l = np.abs(lams)
    modes = _Modes(abs_l, np.sign(lams),
                   None if floor is None else erfc(abs_l * math.sqrt(floor)))
    for array in modes:
        if array is not None:
            array.flags.writeable = False
    return modes


@dataclass(frozen=True)
class TruncationBound:
    """Certified upper bound on what the omitted modes (|lambda| beyond the
    cutoff) can contribute to any heat-time integrand at times >= s_min."""

    cutoff: float
    s_min: float
    bound: float


def _sorted(lams, multiplicity, traces) -> tuple[np.ndarray, ...]:
    """The arrays in stored order; the sort is stable."""
    order = np.lexsort((lams > 0.0, np.abs(lams)))
    return lams[order], multiplicity[order], traces[order]


def circle_spectrum(twist: float, rotation_angle: float, n_max: int) -> BoundarySpectrum:
    """Twisted circle model: eigenvalues n + twist for |n| <= n_max.

    A rotation by rotation_angle acts on the n-th Fourier mode with trace
    exp(-i n rotation_angle); every eigenspace is one-dimensional. The gap
    is min(twist, 1 - twist). The growth metadata uses c2 = 1/2, a true
    but loose envelope: |n + twist| grows linearly in rank (about rank/2,
    since the ranks alternate between the signs), so c2 = 1 would hold
    too, with a smaller c1. The value stays until the growth metadata is
    refitted together with the bounds that read it. c1 is the gap except
    when the gap exceeds 1/(1 + sqrt 2), where the rank-2 eigenvalue sits
    below gap * sqrt 2 and c1 must shrink to keep the stored inequality
    true on every mode. The list is complete below n_max + 1 - twist.
    """
    twist = float(twist)
    if not (0.0 < twist < 1.0):
        raise InvalidSpectrumError(
            f"twist must lie strictly inside (0, 1), got {twist!r}; the endpoints "
            "produce a zero eigenvalue")
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    n = np.arange(-n_max, n_max + 1)
    lams, mult, traces = _sorted(n + twist, np.ones(n.size, dtype=np.int64),
                                 np.exp(-1j * n * rotation_angle))
    c1 = float((np.abs(lams) / np.sqrt(np.arange(1.0, n.size + 1.0))).min())
    return BoundarySpectrum(lams, mult, traces, weyl_c1=c1, weyl_c2=0.5,
                            trace_bound_c3=1.0, trace_bound_c4=0.0,
                            truncated_at=n_max + 1 - twist)


def _fitted(lams, multiplicity, traces, truncated_at) -> BoundarySpectrum:
    """Sort the modes and fit growth metadata to them: the largest c1 over
    the candidate exponents c2, plus a flat trace bound."""
    lams, multiplicity, traces = _sorted(lams, multiplicity, traces)
    abs_l, rank = np.abs(lams), np.arange(1.0, lams.size + 1.0)
    best_c1, best_c2 = -math.inf, _C2_CANDIDATES[0]
    for c2 in _C2_CANDIDATES:  # descending, so ties keep the larger exponent
        c1 = float((abs_l / rank**c2).min())
        if c1 > best_c1:
            best_c1, best_c2 = c1, c2
    c3 = max(float(np.abs(traces).max()), 1e-12)
    return BoundarySpectrum(lams, multiplicity, traces, weyl_c1=best_c1,
                            weyl_c2=best_c2, trace_bound_c3=c3,
                            trace_bound_c4=0.0, truncated_at=truncated_at)


def _only(values, kinds) -> bool:
    """Whether every value is an instance of kinds, bools excluded."""
    return all(issubclass(t, kinds) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _read(items: list, columns, label) -> tuple[np.ndarray, ...]:
    """The (lams, multiplicity, traces) arrays of items, in their order.

    columns(items) returns the lambda, multiplicity, trace_re and trace_im
    columns, or, when some item is malformed, a message that says why the
    first one of a single-item list is. The first malformed item or invalid
    mode is reported, named by label(index).
    """
    cols, why = columns(items), None
    if isinstance(cols, str):  # bisect for the first malformed item
        lo, hi = 0, len(items) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if isinstance(columns(items[:mid + 1]), str) \
                else (mid + 1, hi)
        cols, why = columns(items[:lo]), columns(items[lo:lo + 1])
    lams, mult = np.array(cols[0], dtype=np.float64), np.array(cols[1], dtype=np.int64)
    traces = np.empty(lams.size, dtype=np.complex128)
    traces.real, traces.imag = cols[2], cols[3]  # bit for bit complex(re, im)
    _raise_first(_record_checks(lams, mult, traces), label)
    if why is not None:
        raise InvalidSpectrumError(f"{label(lams.size)}: {why}")
    return lams, mult, traces


def _row_columns(rows: list):
    try:
        lam, mult, re, im = zip(*rows, strict=True) if rows else [()] * 4
    except (TypeError, ValueError):
        return ("must be (lambda, multiplicity, trace_re, trace_im), "
                f"got {rows[0]!r}")
    if not _only(mult, int):
        return f"multiplicity must be a positive integer, got {mult[0]!r}"
    if not all(map(_INT64.__contains__, mult)):
        return f"multiplicity must fit in 64 bits, got {mult[0]!r}"
    return lam, mult, re, im


def from_records(records: Iterable[tuple]) -> BoundarySpectrum:
    """Build a spectrum from (lambda, multiplicity, trace_re, trace_im) rows.

    Rows are sorted, growth metadata is fitted to the data (largest c1 with
    c2 drawn from {1, 1/2, 1/3, 1/4}), and the truncation cutoff is the
    largest |lambda| present.
    """
    rows = list(records)
    if not rows:
        raise InvalidSpectrumError("records must be non-empty")
    lams, mult, traces = _read(rows, _row_columns, lambda i: f"record {i}")
    return _fitted(lams, mult, traces, float(np.abs(lams).max()))


def direct_sum(a: BoundarySpectrum, b: BoundarySpectrum) -> BoundarySpectrum:
    """Merge two spectra; eigenvalues within 1e-12 of their neighbour in
    signed order coalesce into the smallest of them, adding multiplicities
    and traces.

    The merged list is re-ranked, so the growth metadata is refitted to the
    merged data rather than inherited. The result is only complete below the
    smaller of the two cutoffs.
    """
    lams = np.concatenate([a.lams, b.lams])
    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    starts = np.flatnonzero(np.diff(lams, prepend=-np.inf) > _COALESCE_TOL)
    mult, traces = (np.add.reduceat(np.concatenate(pair)[order], starts)
                    for pair in ((a.multiplicity, b.multiplicity),
                                 (a.traces, b.traces)))
    return _fitted(lams[starts], mult, traces,
                   min(a.truncated_at, b.truncated_at))


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
    integral = math.exp(log_integral_cap) * gammaincc(shape, y)

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

def _json_columns(raw: list):
    if not _only(raw, dict):
        return "record must be an object"
    try:
        lam, mult, trace = ([rec[key] for rec in raw]
                            for key in ("lambda", "multiplicity", "trace"))
    except KeyError as missing:
        return f"missing key {missing}"
    if not _only(lam, (int, float)):
        return "lambda must be a number"
    if not _only(mult, int):
        return "multiplicity must be an integer"
    if not all(map(_INT64.__contains__, mult)):
        return "multiplicity must fit in 64 bits"
    if not (_only(trace, list) and set(map(len, trace)) <= {2}
            and _only(chain.from_iterable(trace), (int, float))):
        return "trace must be [re, im]"
    return (lam, mult, *np.array(trace, dtype=np.float64).reshape(-1, 2).T)


def spectrum_from_json_dict(doc: dict) -> BoundarySpectrum:
    if not isinstance(doc, dict) or "data" not in doc:
        raise InvalidSpectrumError('spectrum JSON must be an object with a "data" array')
    raw = doc["data"]
    if not isinstance(raw, list) or not raw:
        raise InvalidSpectrumError('"data" must be a non-empty array')
    lams, mult, traces = _read(raw, _json_columns, lambda i: f"data[{i}]")
    cutoff = doc.get("truncated_at")
    cutoff = float(np.abs(lams).max() if cutoff is None else cutoff)
    weyl = doc.get("weyl")
    if weyl is None:
        return _fitted(lams, mult, traces, cutoff)
    try:
        c1, c2 = float(weyl["c1"]), float(weyl["c2"])
        c3, c4 = float(weyl["c3"]), float(weyl["c4"])
    except (KeyError, TypeError, ValueError):
        raise InvalidSpectrumError(
            '"weyl" must be an object with numeric c1, c2, c3, c4') from None
    return BoundarySpectrum(*_sorted(lams, mult, traces), weyl_c1=c1,
                            weyl_c2=c2, trace_bound_c3=c3, trace_bound_c4=c4,
                            truncated_at=cutoff)


def spectrum_to_json_dict(spectrum: BoundarySpectrum) -> dict:
    columns = (spectrum.lams.tolist(), spectrum.multiplicity.tolist(),
               spectrum.traces.real.tolist(), spectrum.traces.imag.tolist())
    return {
        "data": [{"lambda": lam, "multiplicity": mult, "trace": [re, im]}
                 for lam, mult, re, im in zip(*columns)],
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
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")
