"""The collar factors are evaluated only on the prefix of modes where they
do not underflow; every value must still equal the full-array closed forms
of oracles.py bit for bit.

Each prefix is rank_below of a radius, _collar_radius(a', T) for
e^{-lam^2 T - a'^2/T} and 373/a' for e^{-2 a' |lam|}. Past it the
full-array factor is an exact zero, so dropping it changes nothing. The
comparisons below use exact equality (np.array_equal and ==), which lets
only the sign of a zero differ; the oracles are handed cyleta's own erfc
and erfcx for them, so that equality tests the prefix and not the
kernels. Each mode's spectral tail is eta's
term, halved, less sgn(lam) times the collar piece, halved. The collar
piece is the part of the vanishing integral that a cut at the floor
drops, and the contribution does not cut it: its direct and decomposed
values are -f1 eta/2 bit for bit at every collar, and within est_error of
the full-array spectral tails with their collar pieces added back. Each
mode's Dirichlet tail is eta's term,
halved, plus t/2, with t the negated collar piece on lam > 0 and the
Dirichlet piece e^{-2 a' |lam|} erfc(v) on lam < 0, so the Dirichlet
variant is checked exactly against -(eta + sum_j a_j t_j) / 2 composed
from the oracle pieces over the runtime's modes in its order, block by
block (past 16384 modes too), both at a
given heat time and with the floor refused, where it is
-(eta/2 + sum_{lam < 0} a e^{-2 a' |lam|}) bit for bit; and each t_j
against the full-array Dirichlet tails per mode. The public values are
also checked against the full-array oracles with cyleta's and with
scipy's kernels, within their est_error. Collars are drawn so that
a'^2/T lands below 700 (every mode live on a spectrum that ends near
1/sqrt(T)), in (700, 746) (a partial prefix) and above 746 (an empty
prefix), and so that 2 a' |lam| crosses 746 inside the spectrum.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc as scipy_erfc, erfcx as scipy_erfcx

from cyleta import (BoundarySpectrum, circle_spectrum, contribution,
                    dirichlet_variant_contribution, eta_invariant,
                    from_records)
from cyleta._special import erfc, erfcx
from cyleta.contribution import (_collar_factor, _collar_piece,
                                 _collar_radius)
from cyleta.spectral import _BLOCK

from oracles import (collar_piece, dirichlet_piece, dirichlet_tails,
                     spectral_tails)
from test_closed_forms import circles, finite_spectra

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)
CIRCLES = settings(derandomize=True, deadline=None, database=None,
                   max_examples=40)

# Ranges of a'^2/T: every collar factor live, some live, none live.
REGIMES = {"below": (1e-6, 700.0), "partial": (700.0, 746.0),
           "above": (746.0, 5000.0)}

# Values of f1_at_aprime besides the default.
F1 = (1.0, 1.3, -0.7)


@st.composite
def collar_at(draw, spectrum, T):
    """A collar for heat time T, in one of the REGIMES of a'^2/T, or with
    2 a' |lam| = 746 near a randomly chosen mode."""
    regime = draw(st.sampled_from(sorted(REGIMES) + ["reach"]))
    if regime == "reach":
        lam = abs(float(spectrum.lams[draw(st.integers(0, len(spectrum) - 1))]))
        return 373.0 / lam * draw(st.floats(0.95, 1.05))
    lo, hi = REGIMES[regime]
    offset = draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    return math.sqrt(offset * T)


def _check_prefixes(spectrum, a_prime, T):
    """Past each prefix, rank_below of its radius, the full-array factor is
    an exact zero, and on it the runtime's factor is the full array's bit
    for bit: e^{-lam^2 T - a'^2/T} as _collar_factor makes it, on |lam|
    for _collar_piece and on signed lam for verify_vanishing, and
    e^{-2 a' |lam|} as the Dirichlet variant makes it on its lam < 0
    modes, e^{2 a' lam}."""
    lams = spectrum.lams
    abs_l = np.abs(lams)
    live = spectrum.rank_below(_collar_radius(a_prime, T))
    full = np.exp(-(abs_l * abs_l) * T - (a_prime * a_prime) / T)
    for head in (abs_l[:live], lams[:live]):
        assert np.array_equal(_collar_factor(head, a_prime, T), full[:live])
    assert not full[live:].any()
    reach = spectrum.rank_below(373.0 / a_prime)
    neg = lams[:reach] < 0.0
    full = np.exp(-2.0 * a_prime * abs_l)
    assert np.array_equal(np.exp(2.0 * a_prime * lams[:reach][neg]),
                          full[:reach][neg])
    assert not full[reach:].any()


def _at_floor(spectrum, floor):
    """A copy of spectrum whose floor decision is floor, a heat time or None
    for a refused one, so that the runtime's sums can be checked there."""
    twin = dataclasses.replace(spectrum)
    twin.__dict__["floor_analysis"] = dataclasses.replace(
        spectrum.floor_analysis, floor=floor)
    return twin


def _dirichlet_value(spectrum, a_prime):
    """-(eta + sum_j a_j t_j) / 2 from the oracle pieces with cyleta's
    kernels, over the modes the runtime sums, in its order: block by block
    of _BLOCK modes, the lam < 0 modes of the block's part of the
    e^{-2 a' |lam|} prefix, then, at a resolved floor, the lam > 0 modes
    of its part of the live prefix, each block's sum added in turn. Each
    a_j t_j is halved before the sum, as the runtime does; halving is
    exact but for subnormals. With the floor refused t_j / 2 is
    e^{-2 a' |lam_j|} on lam < 0 and 0 on lam > 0, and the value
    -(eta/2 + sum_{lam < 0} a e^{-2 a' |lam|})."""
    lams, traces = spectrum.lams, spectrum.traces
    eta, floor = eta_invariant(spectrum).value, spectrum.floor_analysis.floor
    abs_l = np.abs(lams)
    reach = spectrum.rank_below(373.0 / a_prime)
    neg = lams < 0.0
    dirichlet = dirichlet_piece(lams, a_prime, floor, erfc)
    if floor is None:
        half = 0.5 * dirichlet[:reach]
        assert np.array_equal(half, np.exp(-2.0 * a_prime * abs_l[:reach]))
        live, terms = 0, traces * np.where(neg, 0.5 * dirichlet, 0.0)
    else:
        live = spectrum.rank_below(_collar_radius(a_prime, floor))
        piece = collar_piece(lams, a_prime, floor, erfcx)
        terms = 0.5 * (traces * np.where(neg, dirichlet, -piece))
    value = 0j
    for lo in range(0, max(reach, live), _BLOCK):
        near = np.arange(lo, min(lo + _BLOCK, reach))
        head = np.arange(lo, min(lo + _BLOCK, live))
        order = np.concatenate((near[neg[near]], head[~neg[head]]))
        value += complex(terms[order].sum())
    return -(0.5 * eta + value)


def _check_dirichlet_terms(lams, a_prime, T):
    """Per mode, the Dirichlet tail is eta's term, halved, plus t/2: on
    lam > 0 it is the spectral tail bit for bit, and on lam < 0
    [dirichlet_piece - erfc(|lam| sqrt(T))] / 2 to 4 ulp of the larger
    part. Where v >= 0 the Dirichlet tail has
    erfcx(v) e^{-lam^2 T - a'^2/T} for e^{-2 a' |lam|} erfc(v), whose
    exponent is rounded to its own ulp, so that piece gets 4 ulp per unit
    of the exponent. cyleta's kernels keep erfc(v) subnormal where scipy's
    flush it to 0."""
    abs_l, sqrt_T = np.abs(lams), math.sqrt(T)
    v = abs_l * sqrt_T - a_prime / sqrt_T
    exponent = (lams * lams) * T + (a_prime * a_prime) / T
    erfc_T = erfc(abs_l * sqrt_T)
    piece = dirichlet_piece(lams, a_prime, T, erfc)
    tails = dirichlet_tails(lams, a_prime, T, erfc, erfcx)
    pos = lams > 0.0
    assert np.array_equal(tails[pos],
                          spectral_tails(lams, a_prime, T, erfc, erfcx)[pos])
    gap = np.abs(0.5 * (piece - erfc_T) - tails)
    tol = 4.0 * (np.spacing(np.maximum(erfc_T, piece))
                 + np.spacing(piece) * np.where(v >= 0.0, exponent, 0.0))
    assert np.all(gap[~pos] <= tol[~pos])


def _check_piece(spectrum, a_prime, T):
    """The runtime piece is the oracle piece on the collar prefix, the
    oracle piece is an exact zero past it, and each oracle spectral tail is
    eta's term, halved, less the signed piece, halved."""
    lams = spectrum.lams
    abs_l = np.abs(lams)
    live = spectrum.rank_below(_collar_radius(a_prime, T))
    runtime = _collar_piece(abs_l[:live], a_prime, T)
    oracle = collar_piece(lams, a_prime, T, erfcx)
    assert np.array_equal(runtime, oracle[:live])
    assert not oracle[live:].any()
    assert np.array_equal(
        spectral_tails(lams, a_prime, T, erfc, erfcx),
        np.sign(lams) * 0.5 * (erfc(abs_l * math.sqrt(T)) - oracle))


def _check_tails(spectrum, a_prime, T):
    lams = spectrum.lams
    _check_prefixes(spectrum, a_prime, T)
    _check_piece(spectrum, a_prime, T)
    for floor in (T, None):
        twin = _at_floor(spectrum, floor)
        assert dirichlet_variant_contribution(twin, a_prime).value \
            == _dirichlet_value(twin, a_prime)
    _check_dirichlet_terms(lams, a_prime, T)


def _piece_sum(spectrum, a_prime):
    """-sum_j a_j sgn(lam_j) piece_j / 2, from the oracle piece over the
    live prefix at the resolved floor: what a cut at the floor would take
    from the direct integral. 0 when the floor is refused, where the
    integrals start at 0."""
    lams, traces = spectrum.lams, spectrum.traces
    floor = spectrum.floor_analysis.floor
    if floor is None:
        return 0j
    live = spectrum.rank_below(_collar_radius(a_prime, floor))
    piece = collar_piece(lams, a_prime, floor, erfcx)[:live]
    terms = traces[:live] * (np.sign(lams[:live]) * piece)
    return -0.5 * complex(terms.sum())


def _full_arrays(spectrum, a_prime, kernels):
    """The spectral and Dirichlet sums of the full-array forms at the
    resolved floor, or of the s -> 0 limits when it is refused. The
    spectral tails get their collar pieces added back, which leaves eta's
    terms, halved: the collar part integrates to 0 from s = 0."""
    lams, traces = spectrum.lams, spectrum.traces
    floor = spectrum.floor_analysis.floor
    if floor is None:
        spectral = 0.5 * traces * np.sign(lams)
        dirichlet = spectral + traces * np.where(
            lams < 0.0, 0.5 * dirichlet_piece(lams, a_prime, None), 0.0)
    else:
        piece = collar_piece(lams, a_prime, floor, kernels[1])
        spectral = traces * (spectral_tails(lams, a_prime, floor, *kernels)
                             + 0.5 * np.sign(lams) * piece)
        dirichlet = traces * dirichlet_tails(lams, a_prime, floor, *kernels)
    return complex(spectral.sum()), complex(dirichlet.sum())


def _check_public(spectrum, a_prime):
    """contribution and the Dirichlet variant: exactly -eta/2 and the
    composition of _dirichlet_value; within est_error of the full-array
    forms with either kernels."""
    eta = eta_invariant(spectrum).value
    report = contribution(spectrum, a_prime)
    dirichlet = dirichlet_variant_contribution(spectrum, a_prime)
    assert report.direct_value == -0.5 * eta
    assert dirichlet.value == _dirichlet_value(spectrum, a_prime)
    for kernels in ((erfc, erfcx), (scipy_erfc, scipy_erfcx)):
        spectral_sum, dirichlet_sum = _full_arrays(spectrum, a_prime, kernels)
        assert abs(report.direct_value + spectral_sum) <= report.est_error
        assert abs(dirichlet.value + dirichlet_sum) <= dirichlet.est_error


def _check_gap(spectrum, a_prime):
    """For every f1 both values are -0.5 (f1 eta) bit for bit, whether or
    not a collar factor lives, and est_error is |f1| times eta's: the
    collar piece moves neither."""
    eta = eta_invariant(spectrum)
    for f1 in F1:
        report = contribution(spectrum, a_prime, f1)
        assert report.direct_value == report.decomposed_value \
            == -0.5 * (f1 * eta.value)
        assert report.vanishing_residual == 0j
        assert report.est_error == abs(f1) * eta.est_error


@PROPERTY
@given(st.data(), finite_spectra(), st.floats(0.01, 1.0))
def test_finite_spectra_tails_match_full_arrays(data, spectrum, T):
    a_prime = data.draw(collar_at(spectrum, T))
    _check_tails(spectrum, a_prime, T)
    _check_public(spectrum, a_prime)
    _check_gap(spectrum, a_prime)


@CIRCLES
@given(st.data(), circles())
def test_circle_tails_match_full_arrays(data, spectrum):
    floor = spectrum.floor_analysis.floor
    assert floor is not None
    a_prime = data.draw(collar_at(spectrum, floor))
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)
    _check_gap(spectrum, a_prime)


def test_partial_prefixes_match_full_arrays():
    # a'^2/s_f = 720 leaves the modes with lam^2 s_f < 26 live, about 80%
    # of this circle; 2 a' |lam| = 746 at |lam| = 1000 splits it too.
    spectrum = circle_spectrum(0.3, 0.7, 2000)
    floor = spectrum.floor_analysis.floor
    a_prime = math.sqrt(720.0 * floor)
    live = spectrum.rank_below(_collar_radius(a_prime, floor))
    assert 0 < live < len(spectrum)
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)
    _check_gap(spectrum, a_prime)

    a_prime = 0.373
    assert 0 < spectrum.rank_below(373.0 / a_prime) < len(spectrum)
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)
    _check_gap(spectrum, a_prime)

    # The live pieces above are about 1e-313, so a check that ignored them
    # would pass as well. Cut at Lambda = 100.7, the same modes get the
    # resolved floor s_f = 3.9e-3, and a'^2/s_f = 10 leaves the 864 modes
    # with |lam| < 432 live; their pieces sum to 1e-5, which a cut of the
    # direct integral at s_f would take from -eta/2 and which the
    # contribution keeps out, while those of the lam > 0 modes move the
    # Dirichlet variant.
    cut = dataclasses.replace(spectrum, truncated_at=100.7)
    floor = cut.floor_analysis.floor
    a_prime = math.sqrt(10.0 * floor)
    assert cut.rank_below(_collar_radius(a_prime, floor)) == 864
    assert abs(_piece_sum(cut, a_prime)) > 1e-6
    _check_tails(cut, a_prime, floor)
    _check_public(cut, a_prime)
    _check_gap(cut, a_prime)


def test_prefixes_past_one_block_compose_block_by_block():
    # On these 40001 modes both collar prefixes hold every mode, three
    # blocks, at a' = 0.003; at a' = 0.01 the e^{-2 a' |lam|} prefix does
    # and the live prefix is empty.
    spectrum = circle_spectrum(0.3, 0.7, 20000)
    floor = spectrum.floor_analysis.floor
    for a_prime, live in ((0.003, len(spectrum)), (0.01, 0)):
        assert spectrum.rank_below(373.0 / a_prime) == len(spectrum)
        assert spectrum.rank_below(_collar_radius(a_prime, floor)) == live
        _check_tails(spectrum, a_prime, floor)
        _check_public(spectrum, a_prime)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_the_variant_is_within_est_error_of_the_dirichlet_tails(regime):
    # A resolved circle, the same circle with its floor refused, and a
    # circle whose floor is refused (n_max 20, ROADMAP baseline), at three
    # collars inside the regime's range of a'^2/T, T the floor or, where
    # it is refused, the candidate.
    resolved = circle_spectrum(0.3, 2.3, 2000)
    spectra = (resolved, _at_floor(resolved, None),
               circle_spectrum(0.3, 0.7, 20))
    assert [s.floor_analysis.floor is None for s in spectra] \
        == [False, True, True]
    for spectrum in spectra:
        T = spectrum.floor_analysis.candidate
        for offset in np.geomspace(*REGIMES[regime], 5)[1:-1]:
            _check_public(spectrum, math.sqrt(offset * T))


def test_the_shift_holds_for_either_sign_of_v_and_a_subnormal_erfc():
    # At T = 1 the modes near |lam| = 27 have erfc(v) below the smallest
    # normal double; a' = 3 puts v < 0 on the first two modes.
    spectrum = from_records([(-0.5, 1, 1.0, 0.0), (2.0, 1, 0.5, 0.5),
                             (-5.0, 2, 1.5, 0.0), (-12.0, 1, 0.0, 1.0),
                             (-26.9, 1, 1.0, 0.0), (-27.1, 1, -1.0, 0.0),
                             (30.0, 1, 1.0, 0.0)])
    abs_l, neg = np.abs(spectrum.lams), spectrum.lams < 0.0
    seen = set()
    for a_prime in (0.1, 3.0, 13.0):
        v = abs_l[neg] - a_prime
        tiny = (erfc(v) > 0.0) & (erfc(v) < np.finfo(float).tiny)
        seen |= {"v >= 0"} if (v >= 0.0).any() else set()
        seen |= {"v < 0"} if (v < 0.0).any() else set()
        seen |= {"subnormal erfc(v)"} if tiny.any() else set()
        _check_tails(spectrum, a_prime, 1.0)
        _check_public(spectrum, a_prime)
    assert seen == {"v >= 0", "v < 0", "subnormal erfc(v)"}


def test_the_prefix_keeps_every_nonzero_factor():
    spectrum = circle_spectrum(0.3, 0.0, 2000)
    floor = spectrum.floor_analysis.floor
    for offset in (100.0, 700.0, 720.0, 745.0, 745.2, 746.0, 800.0):
        _check_prefixes(spectrum, math.sqrt(offset * floor), floor)
    for a_prime in (0.05, 0.3, 0.373, 0.4, 2.0):
        _check_prefixes(spectrum, a_prime, floor)


def test_the_variant_searches_once_per_prefix(monkeypatch):
    # Each prefix is one rank_below, and the per-mode helpers never search:
    # two with a resolved floor (the e^{-2 a' |lam|} and the live prefix),
    # one with a refused floor, after eta's own first query. The radii
    # searched are those that _check_prefixes holds to the full arrays.
    searches = []
    rank_below = BoundarySpectrum.rank_below

    def counted(spectrum, cutoff):
        searches.append(cutoff)
        return rank_below(spectrum, cutoff)

    monkeypatch.setattr(BoundarySpectrum, "rank_below", counted)
    for n_max, per_call in ((2000, 2), (20, 1)):
        spectrum = circle_spectrum(0.3, 0.7, n_max)
        eta_invariant(spectrum)
        floor = spectrum.floor_analysis.floor
        assert (floor is None) == (per_call == 1)
        for a_prime in (0.003, 0.05, 0.373, 2.0):
            searches.clear()
            dirichlet_variant_contribution(spectrum, a_prime)
            radii = [373.0 / a_prime]
            if floor is not None:
                radii.append(_collar_radius(a_prime, floor))
            assert searches == radii and len(searches) == per_call
