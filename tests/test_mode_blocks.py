"""Per-mode passes in blocks: the circle filled in stored order, checks,
floor, eta and the identity flag one block of modes at a time.

Once a spectrum's three arrays exist, every per-mode pass over them runs
in blocks of _special._BLOCK modes, so that no temporary is longer than a
block, and nothing per mode is kept beside the three arrays. The circle
is filled in its stored order, with no sort; it must equal the lexsort of
n + twist by (|lambda|, lambda > 0) bit for bit, rounding ties included.
The validation must name the same rank with the same message wherever
the offending mode sits, a block boundary included. numpy reports its
buffers to tracemalloc, so the memory bounds below are deterministic.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cyleta import (BoundarySpectrum, InvalidSpectrumError, InvalidTraceError,
                    aps_index, circle_spectrum, eta_invariant)
from cyleta._special import _BLOCK, erfc

MB = 2.0 ** 20

TWISTS = (0.5 - 2.0 ** -40, 0.5, 0.5 + 2.0 ** -40, 2.0 ** -30, 1.0 - 2.0 ** -30,
          1.0 - 2.0 ** -45, *np.random.default_rng(31).uniform(0.0, 1.0, 3))


def _lexsorted_circle(twist, angle, n_max):
    """The circle's lams and traces sorted by (|lambda|, lambda > 0), the
    stored order, from all of n + twist at once."""
    n = np.arange(-n_max, n_max + 1)
    lams = n + twist
    order = np.lexsort((lams > 0.0, np.abs(lams)))
    return lams[order], np.exp(-1j * n * angle)[order]


def _ties(lams):
    """Ranks i (0-based) where modes i and i + 1 have one |lambda|."""
    abs_l = np.abs(lams)
    return np.flatnonzero(abs_l[1:] == abs_l[:-1])


@pytest.mark.parametrize("n_max", [1, 2, 8191, 8192, 100000])
@pytest.mark.parametrize("angle", [0.0, 0.7])
@pytest.mark.parametrize("twist", TWISTS)
def test_circle_is_the_lexsort_bit_for_bit(twist, angle, n_max):
    spectrum = circle_spectrum(twist, angle, n_max)
    lams, traces = _lexsorted_circle(twist, angle, n_max)
    assert spectrum.lams.tobytes() == lams.tobytes()
    assert spectrum.traces.tobytes() == traces.tobytes()
    assert spectrum.multiplicity.tolist() == [1] * lams.size
    rank = np.arange(1.0, lams.size + 1.0)
    assert spectrum.weyl_c1 == float((np.abs(lams) / np.sqrt(rank)).min())


def test_rounding_ties_are_met_inside_and_across_blocks():
    # Near twist 1/2, |k + a| and |k + 1 - a| round to one double at
    # ranks 2k + 1 and 2k + 2, inside a block, here from k = _BLOCK/2 on;
    # near twist 1, |k + a| and |k + 2 - a| do at ranks 2k + 2 and
    # 2k + 3, which straddle a block boundary at k = _BLOCK/2 - 1. Filled
    # in order, the positive mode of such a pair would come first.
    half = _ties(_lexsorted_circle(0.5 - 2.0 ** -40, 0.0, 100000)[0])
    assert half[0] == _BLOCK and not (half % 2).any()
    one = _ties(_lexsorted_circle(1.0 - 2.0 ** -45, 0.0, 100000)[0])
    assert _BLOCK - 1 in one and (one % 2).all()
    for twist in (0.5 - 2.0 ** -40, 1.0 - 2.0 ** -45):
        lams = circle_spectrum(twist, 0.7, 100000).lams
        pairs = _ties(lams)
        assert (lams[pairs] < 0.0).all() and (lams[pairs + 1] > 0.0).all()


def _ramp(n):
    """n modes lambda_j = j, multiplicity 1, trace 1: sorted, and tight
    against the growth bound c1 = 1, c2 = 1 and the trace bound c3 = 1,
    c4 = 0 at every rank."""
    return (np.arange(1.0, n + 1.0), np.ones(n, dtype=np.int64),
            np.ones(n, dtype=np.complex128))


def _build(lams, mult, traces):
    return BoundarySpectrum(lams, mult, traces, weyl_c1=1.0, weyl_c2=1.0,
                            trace_bound_c3=1.0, trace_bound_c4=0.0,
                            truncated_at=float(lams.size))


def _nan_lambda(lams, mult, traces):
    lams[20000] = math.nan


def _trace_past_multiplicity(lams, mult, traces):
    traces[30000] = 1.5


def _growth_violation(lams, mult, traces):
    lams[25000] -= 0.5


def _trace_bound_violation(lams, mult, traces):
    mult[40000], traces[40000] = 2, 2.0


def _unsorted_pair(lams, mult, traces):
    lams[[20000, 20001]] = lams[[20001, 20000]]


def _unsorted_across_a_block(lams, mult, traces):
    lams[[_BLOCK - 1, _BLOCK]] = lams[[_BLOCK, _BLOCK - 1]]


def _positive_first_across_a_block(lams, mult, traces):
    lams[_BLOCK] = -lams[_BLOCK - 1]


def _record_before_sort(lams, mult, traces):
    # every record is checked before any order or bound
    _unsorted_pair(lams, mult, traces)
    lams[45000] = math.inf


@pytest.mark.parametrize("defect, error, message", [
    (_nan_lambda, InvalidSpectrumError,
     "rank 20001: eigenvalue must be finite, got nan"),
    (_trace_past_multiplicity, InvalidTraceError,
     "rank 30001: |trace| = 1.5 exceeds multiplicity 1; no unitary "
     "restriction produces that"),
    (_growth_violation, InvalidSpectrumError,
     "growth bound violated at rank 25001: |25000.5| < 1.0 * 25001**1.0"),
    (_trace_bound_violation, InvalidSpectrumError,
     "trace bound violated at rank 40001: |(2+0j)| > 1.0 * 40001**0.0"),
    (_unsorted_pair, InvalidSpectrumError,
     "records must be sorted by |lambda| non-decreasing, negative eigenvalue "
     "first on ties; ranks 20001 and 20002 are not"),
    (_unsorted_across_a_block, InvalidSpectrumError,
     "records must be sorted by |lambda| non-decreasing, negative eigenvalue "
     "first on ties; ranks 16384 and 16385 are not"),
    (_positive_first_across_a_block, InvalidSpectrumError,
     "records must be sorted by |lambda| non-decreasing, negative eigenvalue "
     "first on ties; ranks 16384 and 16385 are not"),
    (_record_before_sort, InvalidSpectrumError,
     "rank 45001: eigenvalue must be finite, got inf"),
])
def test_each_check_names_its_rank_past_the_first_block(defect, error,
                                                        message):
    arrays = _ramp(50000)
    _build(*arrays)
    defect(*arrays)
    with pytest.raises(error) as info:
        _build(*arrays)
    assert type(info.value) is error and str(info.value) == message


def test_caller_arrays_are_copied():
    arrays = _ramp(3 * _BLOCK)
    spectrum = _build(*arrays)
    for given, kept in zip(arrays, (spectrum.lams, spectrum.multiplicity,
                                    spectrum.traces)):
        assert not np.shares_memory(given, kept) and not kept.flags.writeable
        given[-1] = 7
        assert kept[-1] != 7


def test_identity_flag_reads_every_block():
    lams, mult, traces = _ramp(3 * _BLOCK)
    assert aps_index(_build(lams, mult, traces), 0.0).integrality_residual \
        is not None
    traces[2 * _BLOCK + 5] = -1.0
    assert aps_index(_build(lams, mult, traces), 0.0).integrality_residual \
        is None


def test_blockwise_sums_match_the_full_arrays():
    # 200001 modes, 13 blocks: the floor's sums and eta's agree with one
    # pass over the whole arrays within roundoff, and eta within est_error.
    # The heat trace cancels to roundoff (a ratio near 5e-17 to the
    # envelope), so the two ratios are compared absolutely.
    spectrum = circle_spectrum(0.3, 0.7, 100000)
    lams, traces = spectrum.lams, spectrum.traces
    analysis = spectrum.floor_analysis
    damp = np.exp(-analysis.candidate * lams * lams)
    trace = abs(complex((traces * (lams * damp)).sum()))
    envelope = float((np.abs(traces) * np.abs(lams) * damp).sum())
    assert analysis.floor == analysis.candidate
    assert abs(analysis.cancellation_ratio - trace / envelope) <= 1e-15
    assert analysis.trace_mass == pytest.approx(float(np.abs(traces).sum()),
                                                rel=1e-13)
    terms = traces * np.copysign(
        erfc(np.abs(lams) * math.sqrt(analysis.floor)), lams)
    eta = eta_invariant(spectrum)
    assert abs(eta.value - complex(terms.sum())) <= eta.est_error
    assert abs(eta.value - (1.0 - 1j / math.tan(0.35))) <= eta.est_error


def test_no_temporary_is_longer_than_a_block():
    # Sorted and copied, this circle peaked at 20.4 MB to store 6.1 MB, and
    # a first query that kept |lambda| held 1.5 MB and peaked 7.8 MB above.
    tracemalloc.start()
    try:
        spectrum = circle_spectrum(0.3, 0.7, 100000)
        stored = sum(a.nbytes for a in (spectrum.lams, spectrum.multiplicity,
                                        spectrum.traces))
        held, peak = tracemalloc.get_traced_memory()
        assert stored == 32 * 200001 and held >= stored
        assert peak - stored <= 1.5 * MB
        tracemalloc.reset_peak()
        eta_invariant(spectrum)
        aps_index(spectrum, 0.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - held <= 0.05 * MB  # scalars only: 8 B a mode is 1.5 MB
    assert peak - held <= 2.5 * MB
