"""The collar factors are evaluated only on the prefix of modes where they
do not underflow; every value must still equal the full-array closed forms
of oracles.py bit for bit.

Past the prefix e^{-lam^2 T - a'^2/T} and e^{-2 a' |lam|} are exact zeros,
so dropping them changes nothing. The comparisons below use exact equality
(np.array_equal and ==), which lets only the sign of a zero differ; the
oracles are handed cyleta's own erfc and erfcx for them, so that equality
tests the prefix and not the kernels. The public values are also checked
against the oracles with scipy's kernels, within their est_error. Collars
are drawn so that a'^2/T lands below 700 (every mode live on a spectrum
that ends near 1/sqrt(T)), in (700, 746) (a partial prefix) and above 746
(an empty prefix), and so that 2 a' |lam| crosses 746 inside the spectrum.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import erfc as scipy_erfc, erfcx as scipy_erfcx

from cyleta import (circle_spectrum, contribution,
                    dirichlet_variant_contribution, resolved_floor)
from cyleta._special import erfc, erfcx
from cyleta.contribution import (_collar_damping, _dirichlet_damping,
                                 _dirichlet_tails, _dirichlet_variant_detailed,
                                 _spectral_tails)
from cyleta.spectral import _Modes

from oracles import dirichlet_tails, spectral_tails
from test_closed_forms import circles, finite_spectra

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)
CIRCLES = settings(derandomize=True, deadline=None, database=None,
                   max_examples=40)

# Ranges of a'^2/T: every collar factor live, some live, none live.
REGIMES = {"below": (1e-6, 700.0), "partial": (700.0, 746.0),
           "above": (746.0, 5000.0)}


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


def _modes_at(spectrum, T):
    abs_l = np.abs(spectrum.lams)
    return _Modes(abs_l, np.sign(spectrum.lams), erfc(abs_l * math.sqrt(T)))


def _check_prefixes(abs_l, a_prime, T):
    """Past each prefix the full-array factor is an exact zero."""
    live = _collar_damping(abs_l, a_prime, T).size
    full = np.exp(-(abs_l * abs_l) * T - (a_prime * a_prime) / T)
    assert not full[live:].any()
    reach = _dirichlet_damping(abs_l, a_prime).size
    assert not np.exp(-2.0 * a_prime * abs_l)[reach:].any()


def _check_tails(spectrum, a_prime, T):
    lams, traces = spectrum.lams, spectrum.traces
    modes = _modes_at(spectrum, T)
    _check_prefixes(modes.abs_l, a_prime, T)
    for runtime, oracle in ((_spectral_tails(modes, a_prime, T),
                             spectral_tails(lams, a_prime, T, erfc, erfcx)),
                            (_dirichlet_tails(modes, a_prime, T),
                             dirichlet_tails(lams, a_prime, T, erfc, erfcx))):
        assert np.array_equal(runtime, oracle)
        assert complex((traces * runtime).sum()) \
            == complex((traces * oracle).sum())


def _full_arrays(spectrum, a_prime, kernels):
    """The spectral and Dirichlet sums of the full-array forms at the
    resolved floor, or of the s -> 0 limits when it is refused."""
    lams, traces = spectrum.lams, spectrum.traces
    floor = resolved_floor(spectrum)
    if floor is None:
        half = 0.5 * traces * np.sign(lams)
        spectral = half
        dirichlet = half + traces * np.where(
            lams < 0.0, np.exp(-2.0 * a_prime * np.abs(lams)), 0.0)
    else:
        spectral = traces * spectral_tails(lams, a_prime, floor, *kernels)
        dirichlet = traces * dirichlet_tails(lams, a_prime, floor, *kernels)
    return complex(spectral.sum()), complex(dirichlet.sum())


def _check_public(spectrum, a_prime):
    """contribution and the Dirichlet variant against the full-array
    forms: exactly with cyleta's kernels, within est_error with scipy's."""
    report = contribution(spectrum, a_prime)
    dirichlet, dirichlet_err = _dirichlet_variant_detailed(spectrum, a_prime)
    spectral_sum, dirichlet_sum = _full_arrays(spectrum, a_prime,
                                               (erfc, erfcx))
    assert report.direct_value == -spectral_sum
    assert dirichlet_variant_contribution(spectrum, a_prime) == dirichlet \
        == -dirichlet_sum
    spectral_sum, dirichlet_sum = _full_arrays(spectrum, a_prime,
                                               (scipy_erfc, scipy_erfcx))
    assert abs(report.direct_value + spectral_sum) <= report.est_error
    assert abs(dirichlet + dirichlet_sum) <= dirichlet_err


@PROPERTY
@given(st.data(), finite_spectra(), st.floats(0.01, 1.0))
def test_finite_spectra_tails_match_full_arrays(data, spectrum, T):
    a_prime = data.draw(collar_at(spectrum, T))
    _check_tails(spectrum, a_prime, T)
    _check_public(spectrum, a_prime)


@CIRCLES
@given(st.data(), circles())
def test_circle_tails_match_full_arrays(data, spectrum):
    floor = resolved_floor(spectrum)
    assert floor is not None
    a_prime = data.draw(collar_at(spectrum, floor))
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)


def test_partial_prefixes_match_full_arrays():
    # a'^2/s_f = 720 leaves the modes with lam^2 s_f < 26 live, about 80%
    # of this circle; 2 a' |lam| = 746 at |lam| = 1000 splits it too.
    spectrum = circle_spectrum(0.3, 0.7, 2000)
    floor = resolved_floor(spectrum)
    modes = spectrum.modes
    a_prime = math.sqrt(720.0 * floor)
    live = _collar_damping(modes.abs_l, a_prime, floor).size
    assert 0 < live < len(spectrum)
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)

    a_prime = 0.373
    assert 0 < _dirichlet_damping(modes.abs_l, a_prime).size < len(spectrum)
    _check_tails(spectrum, a_prime, floor)
    _check_public(spectrum, a_prime)


def test_the_prefix_keeps_every_nonzero_factor():
    spectrum = circle_spectrum(0.3, 0.0, 2000)
    abs_l, floor = np.abs(spectrum.lams), resolved_floor(spectrum)
    for offset in (100.0, 700.0, 720.0, 745.0, 745.2, 746.0, 800.0):
        _check_prefixes(abs_l, math.sqrt(offset * floor), floor)
    for a_prime in (0.05, 0.3, 0.373, 0.4, 2.0):
        _check_prefixes(abs_l, a_prime, floor)

