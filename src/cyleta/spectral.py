"""Spectral data of the boundary operator.

Everything downstream (heat traces, eta invariants, contribution integrals)
consumes a finite list of modes: the eigenvalue, the dimension of its
eigenspace, and the trace of the group element g restricted to that
eigenspace. BoundarySpectrum stores them as three read-only numpy arrays,
lams (float64), multiplicity (int64) and traces (complex128), plus growth
metadata and the truncation cutoff. This module defines the container,
constructors (an explicit twisted-circle model, raw record lists, JSON
files of four columns or of records), a direct sum, and the truncation-tail
estimator that turns the growth metadata into a quantitative bound on
everything the omitted modes could contribute. Constructors build whole
arrays; no per-mode record object exists. Rows, record-form data and
format-2 columns are only reshaped into the columns lambda, multiplicity,
trace_re and trace_im, which one function types: real numbers within the
double range, an int64 multiplicity, no bools. A bad shape is named first,
then the lowest row with a bad entry, then the first invalid mode.

Conventions baked into the container:

* eigenvalues are nonzero (data describes an invertible operator; there is
  no spectral-shift fallback), and the cutoff leaves a floor 40/cutoff**2 > 0,
* modes are sorted by |lambda| non-decreasing, ties broken negative first,
  so serialized output is deterministic,
* growth metadata (c1, c2, c3, c4) asserts |lambda_j| >= c1 * j**c2 and
  |trace_j| <= c3 * j**c4 for the 1-based rank j; it is used only for tail
  bounds, never to synthesize eigenvalues,
* the arrays cannot be written: a caller's are copied, and those a
  constructor here has just made are kept as they are; equality and
  hashing are those of the object; validation errors name the first
  offending row or rank,
* the first read of ``floor_analysis`` keeps a FloorAnalysis of scalars in
  the instance dict, and ``collar_free`` keeps the sums that no collar
  changes as Python scalars, each made by the first query that needs it;
  nothing per mode is kept beyond the three arrays, at most 32 bytes a
  mode; a column whose entries are all the same is kept as one entry,
  broadcast to the column's length, compared by bits, so the traces of
  an identity circle hold 16 bytes in all and a trace column that mixes
  1+0j with 1-0j is kept whole. |lambda| is read from lams, whose
  prefixes rank_below bisects by abs,
  and eta's one erfc pass ends in the kept sums; fields, arrays, equality
  and hashing stay as they are,
* every pass over all modes once they exist (validation, the circle's
  fill, the growth fit, the floor analysis, and downstream eta's
  sum and the identity flag) runs on blocks of _BLOCK modes, so that no
  temporary is longer than a block: once numpy frees a full-length
  temporary, glibc keeps its pages for the rest of the process (README,
  "Mode arrays"). A collar pass sums the blocks of rank_below(r), r a
  radius past which its factor is an exact 0,
* dump_spectrum writes the text of json.dumps(spectrum_to_json_dict(s),
  sort_keys=True) a column at a time, and formats the one entry of a
  column whose entries all carry the same bits once, so the text does
  not change.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from ._json import JsonFields
from ._special import gammaincc
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
_INT64_MAX = 2**63 - 1

# Candidate growth exponents when fitting metadata to raw records: 1/dim for
# boundary dimensions 1 through 4.
_C2_CANDIDATES = (1.0, 0.5, 1.0 / 3.0, 0.25)

# Every spectrum input is reshaped into these columns, in this order.
_COLUMNS = ("lambda", "multiplicity", "trace_re", "trace_im")

# The resolved floor s_f = _FLOOR_SCALE / Lambda^2 is used only at or below
# _FLOOR_MAX, where |trace| <= _RESOLVED_RATIO * envelope must hold too.
_FLOOR_SCALE = 40.0
_FLOOR_MAX = 0.25
_RESOLVED_RATIO = 1e-6

# Modes per block of a per-mode pass.
_BLOCK = 16384


def _blocks(size: int) -> Iterator[slice]:
    """The slices of successive blocks of _BLOCK modes that cover the first
    size modes. Every per-mode pass over a spectrum's arrays, or a prefix
    of them, runs over them, so that no temporary is longer than a block."""
    return (slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK))


class _Made(NamedTuple):
    """An array that a constructor of this module has just made, of the
    stored dtype; BoundarySpectrum keeps it instead of a copy."""

    array: np.ndarray


def _constant(array: np.ndarray) -> bool:
    """Whether every entry of a one-dimensional array, a column or the real
    or imaginary part of a complex one, carries the bits of its first.
    The scan compares chunks that grow from 8 entries to a block and stops
    at the first chunk with an entry that differs, so a varying column
    costs next to nothing. Each entry is compared with the one before it,
    word by word (a complex is two)."""
    words = array.view(np.uint64)
    w = words.size // array.size
    lo, step = w, 8 * w
    while lo < words.size:
        hi = min(lo + step, words.size)
        if (words[lo:hi] != words[lo - w:hi - w]).any():
            return False
        lo, step = hi, min(8 * step, _BLOCK)
    return True


def _stored(array: np.ndarray) -> np.ndarray:
    """A read-only view of array as a spectrum keeps it: a column whose
    entries all carry the same bits is kept as one entry, broadcast to the
    column's length (0 stride), so it holds 8 or 16 bytes in all."""
    if array.ndim == 1 and array.size > 1 and _constant(array):
        entry = array[:1].copy()  # not a view, which would keep the column
        entry.flags.writeable = False  # and no view of it can undo that
        return np.broadcast_to(entry, array.shape)
    array.flags.writeable = False  # and its view cannot undo that
    return array.view()


def _spectrum(lams, multiplicity, traces, **meta) -> BoundarySpectrum:
    """A BoundarySpectrum of arrays made for it, kept without a copy."""
    return BoundarySpectrum(_Made(lams), _Made(multiplicity), _Made(traces), **meta)


def _raise_first(checks, label=None) -> None:
    """Raise error(i) for the lowest index i that a (mask, error) pair
    flags, the earlier pair on a tie; label(i) prefixes the message."""
    flagged = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks)
               if bad.any()]
    if flagged:
        i, k = min(flagged)
        exc = checks[k][1](i)
        raise type(exc)(f"{label(i)}: {exc}") if label else exc


def _check_records(lams, multiplicity, traces, label) -> None:
    """Raise for the lowest mode i that fails a check every single mode
    must pass, the earlier check on a tie; label(i) prefixes the message."""
    for b in _blocks(lams.size):
        _raise_first(_record_checks(lams[b], multiplicity[b], traces[b]),
                     lambda i: label(b.start + i))


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
    """Sorted modes as read-only arrays, copies of a caller's, plus growth
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
        made = type(self.lams) is _Made
        if not made and np.asarray(self.multiplicity).dtype.kind not in "iu":
            raise InvalidSpectrumError("multiplicity must hold integers")
        for name, dtype in (("lams", np.float64), ("multiplicity", np.int64),
                            ("traces", np.complex128)):
            value = getattr(self, name)
            array = value.array if made else np.array(value, dtype=dtype)
            object.__setattr__(self, name, _stored(array))
        lams, mult, traces = self.lams, self.multiplicity, self.traces
        if lams.ndim != 1 or lams.shape != mult.shape or lams.shape != traces.shape:
            raise InvalidSpectrumError("lams, multiplicity and traces must be "
                                       "one-dimensional and of one length")
        if not lams.size:
            raise InvalidSpectrumError("spectrum must contain at least one record")
        _check_records(lams, mult, traces, lambda i: f"rank {i + 1}")
        c1, c2 = self.weyl_c1, self.weyl_c2
        c3, c4 = self.trace_bound_c3, self.trace_bound_c4
        if not (c1 > 0 and c2 > 0):
            raise InvalidSpectrumError("growth constants c1, c2 must be positive")
        if not (c3 > 0 and c4 >= 0):
            raise InvalidSpectrumError("trace bound constants need c3 > 0, c4 >= 0")
        cutoff = self.truncated_at
        if not (cutoff > 0 and _FLOOR_SCALE / (cutoff * cutoff) > 0):
            raise InvalidSpectrumError("truncation cutoff must be positive, with a "
                                       f"floor 40/cutoff**2 above 0, got {cutoff!r}")
        for b in _blocks(lams.size):
            lo, lam, after = b.start, lams[b], lams[b.start + 1:b.stop + 1]
            abs_l, abs_after, m = np.abs(lam), np.abs(after), after.size
            rank = np.arange(lo + 1.0, lo + 1.0 + lam.size)
            _raise_first([  # by rank; the pair i is ranks lo + i + 1 and lo + i + 2
                ((abs_after < abs_l[:m]) | ((abs_after == abs_l[:m])
                                            & (lam[:m] > after)),
                 lambda i: InvalidSpectrumError(
                     "records must be sorted by |lambda| non-decreasing, negative "
                     f"eigenvalue first on ties; ranks {lo + i + 1} and {lo + i + 2} "
                     "are not")),
                (abs_l < c1 * rank**c2 * (1.0 - _SLACK), lambda i: InvalidSpectrumError(
                    f"growth bound violated at rank {lo + i + 1}: "
                    f"|{float(lam[i])!r}| < {c1!r} * {lo + i + 1}**{c2!r}")),
                (np.abs(traces[b]) > c3 * rank**c4 * (1.0 + _SLACK) + _SLACK,
                 lambda i: InvalidSpectrumError(
                     f"trace bound violated at rank {lo + i + 1}: "
                     f"|{complex(traces[lo + i])!r}| > {c3!r} * {lo + i + 1}**{c4!r}")),
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
    def collar_free(self) -> dict:
        """eta's sums and the identity flag, which no collar changes, by
        name as Python scalars and tuples of them; each is made by the first
        query that needs it, through _kept(), and serves every later one."""
        return {}

    def rank_below(self, cutoff: float) -> int:
        """Number of modes with |lambda| <= cutoff."""
        return bisect.bisect_right(self.lams, cutoff, key=abs)

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
    lams, traces = spectrum.lams, spectrum.traces
    candidate = _FLOOR_SCALE / (spectrum.truncated_at * spectrum.truncated_at)
    trace, envelope, mass = 0j, 0.0, 0.0
    for b in _blocks(lams.size):
        lam, size = lams[b], np.abs(traces[b])
        damp = np.exp(-candidate * lam * lam)
        trace += complex((traces[b] * (lam * damp)).sum())
        envelope += float((size * np.abs(lam) * damp).sum())
        mass += float(size.sum())
    trace = abs(trace)
    floor = candidate if candidate <= _FLOOR_MAX \
        and trace <= _RESOLVED_RATIO * envelope else None
    return FloorAnalysis(
        floor=floor, candidate=candidate,
        cancellation_ratio=trace / envelope if envelope else 0.0,
        skipped_segment=0.0 if floor is None
        else 2.0 / math.sqrt(math.pi) * trace * math.sqrt(floor),
        trace_mass=mass)


def _kept(spectrum: BoundarySpectrum, name: str, compute):
    """spectrum.collar_free[name], made by compute(spectrum) on first use."""
    store = spectrum.collar_free
    if name not in store:
        store[name] = compute(spectrum)
    return store[name]


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
    if not _only((n_max,), Integral) or n_max < 1:
        raise DomainError(f"n_max must be a positive integer, got {n_max!r}")
    n_max = int(n_max)  # so that truncated_at is a Python float
    rotation_angle = float(rotation_angle)
    if not math.isfinite(rotation_angle):
        raise DomainError(
            f"rotation_angle must be finite, got {rotation_angle!r}")
    # Stored order, filled in place: n = 0, -1, 1, -2, ..., -n_max, n_max
    # below twist 1/2 and -1, 0, -2, 1, ..., n_max - 1, n_max from 1/2 on.
    size, odd_first = 2 * n_max + 1, int(twist >= 0.5)
    lams, traces = np.empty(size), np.empty(size, dtype=np.complex128)
    for b in _blocks(size):
        i = np.arange(b.start, b.stop)
        n = np.where((i + odd_first) % 2, -1 - i // 2, i // 2)
        n[n < -n_max] = n_max
        lams[b] = n + twist
        traces[b] = np.exp(-1j * n * rotation_angle)
        # Near twist 1/2 (and 1), |k + twist| and |k + 1 - twist| (and
        # |k + 2 - twist|) can round to one double, and the negative mode
        # goes first on that tie. The pair is the last mode filled and
        # this block's first, or two of this block's.
        pair = slice(max(b.start - 1, 0), i[-1])
        first, second = lams[pair], lams[pair.start + 1:pair.stop + 1]
        j = pair.start + np.flatnonzero((first > 0.0) & (first == -second))
        for array in (lams, traces):
            array[j], array[j + 1] = array[j + 1], array[j]
    return _spectrum(lams, np.ones(size, dtype=np.int64), traces,
                     weyl_c1=_weyl_c1(lams, 0.5), weyl_c2=0.5,
                     trace_bound_c3=1.0, trace_bound_c4=0.0,
                     truncated_at=n_max + 1 - twist)


def _weyl_c1(lams: np.ndarray, c2: float) -> float:
    """The largest c1 with |lambda_j| >= c1 * j**c2 at every rank j."""
    c1 = math.inf
    for b in _blocks(lams.size):
        abs_l = np.abs(lams[b])
        rank = np.arange(b.start + 1.0, b.start + 1.0 + abs_l.size)
        c1 = min(c1, float((abs_l / rank**c2).min()))
    return c1


def _fitted(lams, multiplicity, traces, truncated_at) -> BoundarySpectrum:
    """Sort the modes and fit growth metadata to them: the largest c1 over
    the candidate exponents c2, plus a flat trace bound."""
    lams, multiplicity, traces = _sorted(lams, multiplicity, traces)
    best_c1, best_c2 = -math.inf, _C2_CANDIDATES[0]
    for c2 in _C2_CANDIDATES:  # descending, so ties keep the larger exponent
        c1 = _weyl_c1(lams, c2)
        if c1 > best_c1:
            best_c1, best_c2 = c1, c2
    c3 = max(1e-12, *(float(np.abs(traces[b]).max()) for b in _blocks(traces.size)))
    return _spectrum(lams, multiplicity, traces, weyl_c1=best_c1,
                     weyl_c2=best_c2, trace_bound_c3=c3,
                     trace_bound_c4=0.0, truncated_at=truncated_at)


def _only(values, kinds) -> bool:
    """Whether every value is an instance of kinds, bools excluded."""
    return all(issubclass(t, kinds) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _array(values, k: int) -> np.ndarray | None:
    """values as column k of _COLUMNS: an int64 array of integers for the
    multiplicity (k = 1), else a float64 array of real numbers; None unless
    every value is of that kind, bools excluded, and fits."""
    try:
        return np.array(values, dtype=np.int64 if k == 1 else np.float64) \
            if _only(values, Integral if k == 1 else Real) else None
    except OverflowError:
        return None


def _modes(cols, row: str, entry: str, names=_COLUMNS) -> tuple[np.ndarray, ...]:
    """The (lams, multiplicity, traces) arrays of the four columns cols, in
    the order of _COLUMNS; every spectrum input is read here.

    The first entry that _array refuses, at the lowest row i and then the
    first column k, is named entry.format(i, names[k]); else the first
    invalid mode is named row.format(i).
    """
    arrays = [_array(col, k) for k, col in enumerate(cols)]
    refused = [(next(i for i, v in enumerate(col) if _array((v,), k) is None), k)
               for k, col in enumerate(cols) if arrays[k] is None]
    if refused:
        i, k = min(refused)
        v = cols[k][i]
        want = "a 64-bit integer" if k == 1 else \
            "within the double range" if type(v) is int else "a number"
        raise InvalidSpectrumError(f"{entry.format(i, names[k])}: "
                                   f"must be {want}, got {v!r}")
    lams, mult, re, im = arrays
    traces = np.empty(lams.size, dtype=np.complex128)
    traces.real, traces.imag = re, im  # bit for bit complex(re, im)
    _check_records(lams, mult, traces, row.format)
    return lams, mult, traces


def _shaped(items: list, fields, row: str):
    """fields(items), the four columns of items; when fields says why not,
    the first item that fields refuses alone is named row.format(index)."""
    cols = fields(items)
    if isinstance(cols, str):
        i, why = next((i, why) for i, why in enumerate(fields([item]) for item in items)
                      if isinstance(why, str))
        raise InvalidSpectrumError(f"{row.format(i)}: {why}")
    return cols


def _row_fields(rows: list):
    try:
        lam, mult, re, im = zip(*rows, strict=True)
    except (TypeError, ValueError):
        return f"must be (lambda, multiplicity, trace_re, trace_im), got {rows[0]!r}"
    return lam, mult, re, im


def from_records(records: Iterable[tuple]) -> BoundarySpectrum:
    """Build a spectrum from (lambda, multiplicity, trace_re, trace_im) rows.

    Rows are sorted, growth metadata is fitted to the data (largest c1 with
    c2 drawn from {1, 1/2, 1/3, 1/4}), and the truncation cutoff is the
    largest |lambda| present.
    """
    # zip(*rows) drains a one-shot row before _shaped re-reads it
    rows = [tuple(row) if isinstance(row, Iterator) else row for row in records]
    if not rows:
        raise InvalidSpectrumError("records must be non-empty")
    lams, mult, traces = _modes(_shaped(rows, _row_fields, "record {}"),
                                "record {}", "record {} {}")
    return _fitted(lams, mult, traces, float(np.abs(lams).max()))


def direct_sum(a: BoundarySpectrum, b: BoundarySpectrum) -> BoundarySpectrum:
    """Merge two spectra; an eigenvalue of the sign of its neighbour in
    signed order, and within 1e-12 times the larger magnitude of the two,
    coalesces with it into the smallest of them, adding multiplicities and
    traces. Eigenvalues of opposite sign never coalesce, and inputs scaled
    by one power of two coalesce alike.

    The merged list is re-ranked, so the growth metadata is refitted to the
    merged data rather than inherited. The result is only complete below the
    smaller of the two cutoffs. A coalesced multiplicity past the int64
    range is refused by name.
    """
    lams = np.concatenate([a.lams, b.lams])
    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    before, after = lams[:-1], lams[1:]
    apart = ((before < 0.0) != (after < 0.0)) | (
        after - before > _COALESCE_TOL * np.maximum(-before, after))
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    mult = _coalesced(np.concatenate((a.multiplicity, b.multiplicity))[order],
                      starts, lams[starts])
    traces = np.add.reduceat(np.concatenate((a.traces, b.traces))[order], starts)
    return _fitted(lams[starts], mult, traces,
                   min(a.truncated_at, b.truncated_at))


def _coalesced(mult: np.ndarray, starts: np.ndarray,
               lams: np.ndarray) -> np.ndarray:
    """np.add.reduceat(mult, starts) of positive int64 multiplicities, with
    a sum past int64 refused by name at its eigenvalue in lams. Where some
    sum could wrap, the sums are first made exactly, in Python ints."""
    if int(mult.max()) > _INT64_MAX // mult.size:
        exact = np.add.reduceat(mult.astype(object), starts)
        over = exact > _INT64_MAX
        if over.any():
            i = int(over.argmax())
            raise InvalidSpectrumError(
                f"eigenvalue {float(lams[i])!r}: coalesced multiplicity "
                f"{exact[i]} exceeds the int64 range")
    return np.add.reduceat(mult, starts)


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
    if not (math.isfinite(a_prime) and a_prime >= 0.0):
        raise DomainError(
            f"a_prime must be a nonnegative real, got {a_prime!r}")
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
# JSON files. The record form has no "format" key; its "data" is a list of
# {"lambda": r, "multiplicity": n, "trace": [re, im]}. Format 2, which
# dump_spectrum writes, has "format": 2 and "data": {"lambda": [r, ...],
# "multiplicity": [n, ...], "trace_re": [r, ...], "trace_im": [r, ...]}.
# Both take "weyl": {"c1": r, "c2": r, "c3": r, "c4": r}, fitted from the
# data when absent, and "truncated_at": r, the largest |lambda| when absent.

def _record_fields(raw: list):
    if not _only(raw, dict):
        return "record must be an object"
    try:
        lam, mult, trace = ([rec[key] for rec in raw]
                            for key in ("lambda", "multiplicity", "trace"))
    except KeyError as missing:
        return f"missing key {missing}"
    if not (_only(trace, list) and set(map(len, trace)) <= {2}):
        return "trace must be [re, im]"
    return lam, mult, [t[0] for t in trace], [t[1] for t in trace]


def _column_lists(data) -> list:
    """The four columns of a format-2 "data" object, of one nonzero length;
    else the first missing entry is named data.<column>[index]."""
    data = data if isinstance(data, dict) else {}
    cols = [data[name] if isinstance(data.get(name), list) else [] for name in _COLUMNS]
    n = max(map(len, cols))
    for name, col in zip(_COLUMNS, cols):
        if len(col) < n or not n:
            raise InvalidSpectrumError(f"data.{name}[{len(col)}]: no entry; the four "
                                       "columns must be non-empty arrays of one length")
    return cols


def spectrum_from_json_dict(doc: dict) -> BoundarySpectrum:
    if not isinstance(doc, dict) or "data" not in doc:
        raise InvalidSpectrumError('spectrum JSON must be an object with a "data" array')
    if "format" not in doc:
        raw = doc["data"]
        if not isinstance(raw, list) or not raw:
            raise InvalidSpectrumError('"data" must be a non-empty array')
        lams, mult, traces = _modes(_shaped(raw, _record_fields, "data[{}]"), "data[{}]",
                                    "data[{}].{}", ("lambda", "multiplicity",
                                                    "trace[0]", "trace[1]"))
    elif doc["format"] == 2 and type(doc["format"]) is int:
        lams, mult, traces = _modes(_column_lists(doc["data"]), "data[{}]", "data.{1}[{0}]")
    else:
        raise InvalidSpectrumError(f'"format" must be 2 or absent, got {doc["format"]!r}')
    cutoff, weyl = doc.get("truncated_at"), doc.get("weyl")
    try:  # by the type rule of the lambda column
        meta = _array([np.abs(lams).max() if cutoff is None else cutoff,
                       *(weyl[k] for k in (() if weyl is None else
                                           ("c1", "c2", "c3", "c4")))], 0)
    except (KeyError, TypeError):
        meta = None
    if meta is None:
        raise InvalidSpectrumError('"truncated_at" must be a number and "weyl" an '
                                   'object with numeric c1, c2, c3, c4')
    cutoff, *growth = meta.tolist()
    if not growth:
        return _fitted(lams, mult, traces, cutoff)
    c1, c2, c3, c4 = growth
    return _spectrum(*_sorted(lams, mult, traces), weyl_c1=c1, weyl_c2=c2,
                     trace_bound_c3=c3, trace_bound_c4=c4, truncated_at=cutoff)


def _columns(spectrum: BoundarySpectrum) -> dict:
    """The four format-2 columns of a spectrum as arrays, by name."""
    return dict(zip(_COLUMNS, (spectrum.lams, spectrum.multiplicity,
                               spectrum.traces.real, spectrum.traces.imag)))


def _metadata(spectrum: BoundarySpectrum) -> dict:
    """The format-2 keys after "format" and "data"."""
    return {"weyl": {"c1": spectrum.weyl_c1, "c2": spectrum.weyl_c2,
                     "c3": spectrum.trace_bound_c3, "c4": spectrum.trace_bound_c4},
            "truncated_at": spectrum.truncated_at}


def spectrum_to_json_dict(spectrum: BoundarySpectrum) -> dict:
    return {"format": 2,
            "data": {name: col.tolist() for name, col in _columns(spectrum).items()},
            **_metadata(spectrum)}


def load_spectrum(path: Union[str, Path]) -> BoundarySpectrum:
    """Read a spectrum from a JSON file of either form."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or an int past int()'s digit limit
        raise InvalidSpectrumError(f"{path}: not valid JSON ({exc})") from None
    return spectrum_from_json_dict(doc)


def _column_text(col: np.ndarray) -> str:
    """json.dumps(col.tolist()); a column whose entries all carry the same
    bits has its one entry formatted once and repeated."""
    if _constant(col):
        entry = json.dumps(col[:1].tolist())[1:-1]
        return "[" + (entry + ", ") * (col.size - 1) + entry + "]"
    return json.dumps(col.tolist())


def dump_spectrum(spectrum: BoundarySpectrum, path: Union[str, Path]) -> None:
    """Write a spectrum to a JSON file in format 2: the bytes of
    json.dumps(spectrum_to_json_dict(spectrum), sort_keys=True) + "\\n",
    written a column at a time. "data" is the first key in sorted order."""
    data = ", ".join(f"{json.dumps(name)}: {_column_text(col)}"
                     for name, col in sorted(_columns(spectrum).items()))
    rest = json.dumps({"format": 2, **_metadata(spectrum)}, sort_keys=True)
    Path(path).write_text('{"data": {' + data + "}, " + rest[1:] + "\n")
