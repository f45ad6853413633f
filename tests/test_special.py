"""cyleta's own erfcx, erfc and Q(a, y) against mpmath at 40 digits and
against scipy.special.

The bar for each is a maximum relative error, over the same points, no
worse than scipy's. The points cover erfcx on [0, 1e8] and on negative
arguments, erfc on [-6, 27], and Q(a, y) at every shape and argument
that tail_bound reaches on circles and on fitted spectra of each growth
exponent.
"""

import importlib.util
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

from cyleta import BoundarySpectrum, circle_spectrum, eta_invariant, tail_bound
from cyleta._special import erfc, erfcx, gammaincc

SPECTRAL = importlib.import_module("cyleta.spectral")
TOOL = Path(__file__).resolve().parents[1] / "tools" / "erfcx_coefficients.py"

# The smallest normal double; below it relative errors measure underflow.
NORMAL = 2.2250738585072014e-308


def _max_relative(values, exact) -> float:
    """The largest relative error over the exact values that are normal
    doubles."""
    return max(float(abs((mpmath.mpf(float(v)) - e) / e))
               for v, e in zip(values, exact) if abs(e) >= NORMAL)


def _compare(points, ours, theirs, exact):
    """(our, scipy's) maximum relative errors on the points."""
    with mpmath.workdps(40):
        want = [exact(mpmath.mpf(float(x))) for x in points]
        return _max_relative(ours(points), want), \
            _max_relative(theirs(points), want)


def _erfcx_exact(x):
    return mpmath.exp(x * x) * mpmath.erfc(x)


ERFCX_GRIDS = {
    "linear [0, 30]": np.linspace(0.0, 30.0, 1201),
    "geometric [1e-8, 1e8]": np.concatenate(
        [[0.0], np.geomspace(1e-8, 1e8, 1201)]),
    "random [0, 12]": np.random.default_rng(7).uniform(0.0, 12.0, 1200),
    "negative [-26.6, 0]": np.linspace(-26.6, 0.0, 1201),
}


@pytest.mark.parametrize("grid", sorted(ERFCX_GRIDS))
def test_erfcx_against_mpmath(grid):
    ours, scipy_err = _compare(ERFCX_GRIDS[grid], erfcx,
                               scipy.special.erfcx, _erfcx_exact)
    print(f"erfcx {grid}: {ours:.2e}, scipy {scipy_err:.2e}")
    assert ours <= scipy_err
    assert ours <= 1e-15


@pytest.mark.parametrize("lo, hi", [(0.0, 6.4), (-6.0, 27.0)])
def test_erfc_against_mpmath(lo, hi):
    points = np.concatenate([np.linspace(lo, hi, 1601),
                             np.random.default_rng(11).uniform(lo, hi, 800)])
    ours, scipy_err = _compare(points, erfc, scipy.special.erfc, mpmath.erfc)
    print(f"erfc [{lo}, {hi}]: {ours:.2e}, scipy {scipy_err:.2e}")
    assert ours <= scipy_err
    assert ours <= 1e-15


def test_erfc_underflows_without_nan():
    # Past the normal range erfc keeps about as many bits as the
    # subnormal result has, and past 27.3 it is an exact 0.
    x = np.array([26.6, 27.0, 27.2])
    with mpmath.workdps(40):
        want = [float(mpmath.erfc(mpmath.mpf(float(v)))) for v in x]
    assert erfc(x) == pytest.approx(want, rel=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = erfc(np.array([27.4, 1e300, np.inf, -1e300, -np.inf]))
        assert huge.tolist() == [0.0, 0.0, 0.0, 2.0, 2.0]
        assert erfcx(np.array([np.inf, -26.7, -1e300, -np.inf])).tolist() \
            == [0.0, math.inf, math.inf, math.inf]
    assert np.isnan(erfc(np.nan)) and np.isnan(erfcx(np.nan))
    # Left of -5.9 erfc(v) = 2 - erfc(-v) lies within half an ulp of 2
    # (erfc(5.9) = 7.2e-17), and the kernel gives exactly 2.0 there: the
    # mpmath comparison alone would pass a 1-ulp miss.
    assert (erfc(np.linspace(-28.0, -5.9, 200_001)) == 2.0).all()


def test_shapes_and_scalars():
    grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert erfc(grid).shape == erfcx(grid).shape == (3, 4)
    assert erfc(grid).ravel().tolist() == erfc(grid.ravel()).tolist()
    assert erfc(0.0) == 1.0 and erfcx(0.0) == 1.0
    # a Python float, a 0-d array (of either sign, so that erfcx's
    # negative branch runs) and an empty array
    for kernel in (erfc, erfcx):
        for x in (0.5, -0.5, np.array(0.5), np.array(-0.5)):
            value = kernel(x)
            assert isinstance(value, float)
            assert value == kernel(np.array([float(x)]))[0]
        for empty in (np.array([]), np.empty((0, 3))):
            out = kernel(empty)
            assert isinstance(out, np.ndarray)
            assert out.shape == empty.shape and out.dtype == np.float64


def test_a_value_does_not_depend_on_its_place_in_the_array():
    # The kernels run on every point of an array at once; a value must be
    # the one the same point gets alone.
    x = np.random.default_rng(3).uniform(-5.0, 40.0, 50_001)
    assert np.array_equal(erfcx(x)[::997], [erfcx(v) for v in x[::997]])
    assert np.array_equal(erfc(x)[::997], [erfc(v) for v in x[::997]])


def _power_law(power: int) -> BoundarySpectrum:
    """400 modes -0.9 j^(1/power), stored with that growth exponent."""
    rank = np.arange(1.0, 401.0)
    return BoundarySpectrum(-0.9 * rank ** (1.0 / power), np.ones(400, int),
                            np.ones(400), weyl_c1=0.9, weyl_c2=1.0 / power,
                            trace_bound_c3=1.0, trace_bound_c4=0.0,
                            truncated_at=0.9 * 400 ** (1.0 / power))


def _tail_bound_arguments(monkeypatch) -> list[tuple[float, float]]:
    """The (a, y) of every Q(a, y) that tail_bound asks for on circles and
    on spectra with growth exponents 1, 1/2, 1/3 and 1/4."""
    seen = []

    def recorded(a, y):
        seen.append((a, y))
        return gammaincc(a, y)

    monkeypatch.setattr(SPECTRAL, "gammaincc", recorded)
    for n_max in (10, 200, 2000, 20000):
        for twist in (0.25, 0.6):
            eta_invariant(circle_spectrum(twist, 0.7, n_max))
    tail_bound(circle_spectrum(0.25, 0.0, 10), 0.1, 0.5)
    for power in (1, 2, 3, 4):
        spectrum = _power_law(power)
        eta_invariant(spectrum)
        for s_min in (1e-4, 1e-2, 1.0):
            tail_bound(spectrum, s_min, 0.5)
    return seen


def test_gammaincc_where_tail_bound_uses_it(monkeypatch):
    seen = _tail_bound_arguments(monkeypatch)
    assert any(y < a + 1.0 for a, y in seen)  # the series
    assert any(y >= a + 1.0 for a, y in seen)  # the continued fraction
    with mpmath.workdps(40):
        want = [mpmath.gammainc(a, y, mpmath.inf, regularized=True)
                for a, y in seen]
    ours = _max_relative([gammaincc(a, y) for a, y in seen], want)
    theirs = _max_relative([scipy.special.gammaincc(a, y) for a, y in seen],
                           want)
    print(f"Q(a, y) at {len(seen)} tail_bound points: {ours:.2e}, "
          f"scipy {theirs:.2e}")
    assert ours <= theirs


def test_gammaincc_on_a_grid():
    points = [(a, float(y)) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
              for y in np.geomspace(1e-10, 300.0, 60)]
    with mpmath.workdps(40):
        want = [mpmath.gammainc(a, y, mpmath.inf, regularized=True)
                for a, y in points]
    ours = _max_relative([gammaincc(a, y) for a, y in points], want)
    theirs = _max_relative([scipy.special.gammaincc(a, y)
                            for a, y in points], want)
    assert ours <= theirs
    assert gammaincc(1.5, 0.0) == 1.0 and gammaincc(1.5, math.inf) == 0.0


def test_truncation_bounds_keep_their_values(monkeypatch):
    spectra = [circle_spectrum(0.25, 0.7, n_max) for n_max in (10, 2000)]
    spectra += [_power_law(power) for power in (1, 4)]

    def bounds():
        return [eta_invariant(s).truncation_error for s in spectra] \
            + [tail_bound(s, s_min, 0.5).bound for s in spectra
               for s_min in (1e-4, 0.1, 1.0)]

    ours = bounds()
    monkeypatch.setattr(SPECTRAL, "gammaincc", scipy.special.gammaincc)
    assert ours == pytest.approx(bounds(), rel=1e-13)


def test_the_committed_table_regenerates():
    spec = importlib.util.spec_from_file_location("erfcx_coefficients", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--check"]) == 0
