"""Each correctness check of the benchmark rejects a perturbed value.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench_checks.py
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import pytest

import inputs
import reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

TWIST, ANGLE, COLLAR = 0.3, 0.7, 0.5


@pytest.mark.parametrize("angle", [0.0, ANGLE])
def test_eta_check_rejects_an_error_of_1e_9(angle):
    exact = reference.circle_eta(TWIST, angle)
    assert reference.check_eta(exact, TWIST, angle) == []
    assert reference.check_eta(exact + 1e-9, TWIST, angle)
    assert reference.check_eta(exact + 1e-9j, TWIST, angle)


def test_eta_reference_matches_the_library_on_both_kinds_of_trace():
    from cyleta import circle_spectrum, eta_invariant
    for angle in (0.0, ANGLE):
        value = eta_invariant(circle_spectrum(TWIST, angle, 500)).value
        assert reference.check_eta(value, TWIST, angle) == []


def test_dirichlet_reference_is_the_sum_over_negative_modes():
    n_max = 400
    terms = [cmath.exp(-1j * n * ANGLE) * math.exp(-2 * COLLAR * abs(n + TWIST))
             for n in range(-n_max, 0)]
    shift = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    want = -0.5 * reference.circle_eta(TWIST, ANGLE) - shift
    assert abs(reference.circle_dirichlet(TWIST, ANGLE, COLLAR) - want) < 1e-14


@pytest.mark.parametrize("angle", [0.0, ANGLE])
def test_dirichlet_check_rejects_the_value_without_the_sign_flip(angle):
    from cyleta import circle_spectrum, contribution
    from cyleta import dirichlet_variant_contribution
    spectrum = circle_spectrum(TWIST, angle, 500)
    value = dirichlet_variant_contribution(spectrum, COLLAR)
    assert reference.check_dirichlet(value, TWIST, angle, COLLAR) == []
    assert reference.check_dirichlet(value + 1e-9, TWIST, angle, COLLAR)
    # Without the sign flip on negative modes the Dirichlet bracket is the
    # spectral one, and the value collapses to the contribution -eta/2.
    unflipped = contribution(spectrum, COLLAR).direct_value
    assert reference.check_dirichlet(unflipped, TWIST, angle, COLLAR)


def test_contribution_check_rejects_each_perturbed_field():
    want = -0.5 * reference.circle_eta(TWIST, ANGLE)
    est = 1e-6
    args = dict(direct=want, decomposed=want + 0.5 * est,
                vanishing_residual=0.5 * est, est_error=est, twist=TWIST,
                angle=ANGLE)
    assert reference.check_contribution(**args) == []
    for field, bad in (("direct", want + 1e-9),
                       ("decomposed", want + 2 * est),
                       ("vanishing_residual", 2 * est)):
        assert reference.check_contribution(**{**args, field: bad}), field


def test_vanishing_check_rejects_a_value_outside_its_estimate():
    assert reference.check_vanishing(1e-7, 2e-7) == []
    assert reference.check_vanishing(3e-7, 2e-7)


def test_index_relative_and_direct_sum_checks_reject_an_error_of_1e_9():
    want = 0.25 - 0.5 * reference.circle_eta(TWIST, 0.0)
    assert reference.check_index(want, 0.25, TWIST, 0.0) == []
    assert reference.check_index(want + 1e-9, 0.25, TWIST, 0.0)
    assert reference.check_relative(0.3 - 0.6, 0.3, 0.6) == []
    assert reference.check_relative(0.3 - 0.6 + 1e-9, 0.3, 0.6)
    parts = [(0.3, 0.0), (0.6, ANGLE)]
    total = sum(reference.circle_eta(t, a) for t, a in parts)
    assert reference.check_eta_sum(total, parts) == []
    assert reference.check_eta_sum(total + 1e-9, parts)


def test_verify_check_needs_exit_0_and_passed():
    good = {"result": {"passed": True}}
    assert reference.check_passed("verify-vanishing", 0, good) == []
    assert reference.check_passed("verify-vanishing", 2, good)
    assert reference.check_passed("verify-vanishing", 0,
                                  {"result": {"passed": False}})
    assert reference.check_passed("verify-vanishing", 1, {"result": None})


def test_written_circle_loads_with_its_cutoff(tmp_path):
    from cyleta import load_spectrum
    path = tmp_path / "circle.json"
    inputs.write_circle(path, TWIST, ANGLE, 50)
    spectrum = load_spectrum(path)
    assert len(spectrum) == 101
    assert spectrum.truncated_at == 51 - TWIST


def test_collars_cover_every_band_and_repeat_per_seed():
    values = inputs.collars(inputs.rng_for("collar-sweep", 7))
    assert values == inputs.collars(inputs.rng_for("collar-sweep", 7))
    for value, (lo, hi) in zip(values, inputs.COLLAR_BANDS):
        assert lo <= value <= hi
    assert inputs.COLLAR_BANDS[0][0] == 0.05
    assert inputs.COLLAR_BANDS[-1][1] == pytest.approx(5.0)
