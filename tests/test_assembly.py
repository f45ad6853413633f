"""Index assembly: interior term plus boundary contribution, as_term - f1 eta/2."""

import math
from itertools import product

import pytest

from cyleta import (
    DomainError,
    aps_index,
    circle_spectrum,
    contribution,
    eta_invariant,
    from_records,
    relative_index_check,
)


def _single(lam=2.0):
    return from_records([(lam, 1, 1.0, 0.0)])


MIXED = from_records([
    (0.4, 1, 1.0, 0.0),
    (-0.9, 1, 0.7, 0.0),
    (1.6, 2, -1.2, 0.3),
    (-2.5, 1, 0.5, -0.4),
])


# ---------------------------------------------------------------------------
# the index of one mode


def test_assembled_index_from_single_mode():
    idx = aps_index(_single(), 1.0, g_is_identity=True)
    assert idx.index_value == pytest.approx(0.5, abs=1e-12)
    assert idx.contribution == pytest.approx(-0.5, abs=1e-12)
    assert idx.index_value == idx.as_term + idx.contribution
    assert idx.eta_half == 0.5 * contribution(_single(), 0.7).eta_reference
    # A half-integer index is as far from the integers as possible; with
    # the identity flag set that distance is reported, not rounded away.
    assert idx.integrality_residual == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# aps_index


def test_aps_index_detects_identity_element():
    # Trivial rotation: every trace equals its multiplicity, so the
    # integrality check switches on by itself and the assembled index
    # 1/4 - eta/2 = 1/4 - 1/4 lands on an integer.
    idx = aps_index(circle_spectrum(0.25, 0.0, 300), 0.25)
    assert idx.eta_half == pytest.approx(0.25, abs=1e-8)
    assert idx.integrality_residual is not None
    assert idx.integrality_residual <= 1e-8


def test_aps_index_skips_residual_for_rotations():
    idx = aps_index(circle_spectrum(0.25, 0.7, 300), 0.25)
    assert idx.integrality_residual is None


def test_aps_index_explicit_flag_wins():
    rotated = circle_spectrum(0.25, 0.7, 300)
    assert aps_index(rotated, 0.0, g_is_identity=True) \
        .integrality_residual is not None
    identity = circle_spectrum(0.25, 0.0, 300)
    assert aps_index(identity, 0.0, g_is_identity=False) \
        .integrality_residual is None


@pytest.mark.parametrize("spec", [
    _single(),
    MIXED,
    circle_spectrum(0.25, 0.0, 300),
], ids=["single", "mixed", "circle"])
def test_both_assembly_routes_agree(spec):
    # as_term - f1 eta/2 is as_term plus the contribution at any collar,
    # bit for bit, with half the contribution's est_error.
    as_term = 0.25 + 0.1j
    for f1 in (1.0, 2.0, -0.5, 1.3):
        idx = aps_index(spec, as_term, f1_at_aprime=f1)
        for a_prime in (0.05, 0.5, 3.0):
            report = contribution(spec, a_prime, f1)
            assert repr(idx.index_value) == repr(as_term + report.direct_value)
            assert idx.est_error == 0.5 * report.est_error
        assert idx.eta_half == 0.5 * report.eta_reference


def test_the_index_is_as_term_plus_the_contribution_on_circles():
    # The circles of tools/output_digest.py, at its interior terms and
    # collars, for two warp factors other than 1.
    for twist, angle, n_max in product((0.1, 0.25, 0.5, 0.83), (0.0, 0.7, 2.3),
                                       (5, 40, 300, 2000)):
        spec = circle_spectrum(twist, angle, n_max)
        for f1, as_term in product((2.0, -0.5), (0j, 0.5 + 0.25j)):
            value = aps_index(spec, as_term, f1_at_aprime=f1).index_value
            for a_prime in (0.003, 0.05, 1.0, 40.0):
                want = as_term + contribution(spec, a_prime, f1).direct_value
                assert repr(value) == repr(want)


def test_f1_scales_the_eta_half_and_its_budget():
    spec = circle_spectrum(0.25, 0.7, 300)
    one = aps_index(spec, 0.5)
    for f1 in (2.0, -0.5, 0.0):
        idx = aps_index(spec, 0.5, f1_at_aprime=f1)
        assert idx.eta_half == 0.5 * (f1 * eta_invariant(spec).value)
        assert idx.index_value == 0.5 - idx.eta_half
        assert idx.est_error == abs(f1) * one.est_error
    twice = aps_index(spec, 0.5, f1_at_aprime=2.0)
    assert twice.index_value == 0.5 - eta_invariant(spec).value
    assert twice.est_error == eta_invariant(spec).est_error


@pytest.mark.parametrize("f1", [math.nan, math.inf, -math.inf])
def test_aps_index_refuses_a_non_finite_f1(f1):
    with pytest.raises(DomainError, match="f1_at_aprime must be finite"):
        aps_index(MIXED, 0.0, f1_at_aprime=f1)


# ---------------------------------------------------------------------------
# relative index


def test_relative_index_cancels_for_equal_boundaries():
    spec = circle_spectrum(0.25, 0.0, 400)
    rebuilt = from_records(zip(spec.lams.tolist(), spec.multiplicity.tolist(),
                               spec.traces.real.tolist(),
                               spec.traces.imag.tolist()))
    value = relative_index_check(spec, 3.0, rebuilt, -1.0, 0.5).value
    assert abs(value) <= 1e-10


def test_relative_index_budget_is_both_contributions_budgets():
    one, two = circle_spectrum(0.25, 0.0, 300), circle_spectrum(0.4, 0.7, 300)
    result = relative_index_check(one, 1.0, two, 2.0, 0.5)
    assert result.est_error == (contribution(one, 0.5).est_error
                                + contribution(two, 0.5).est_error)
    assert abs(result.value - (contribution(one, 0.5).direct_value
                               - contribution(two, 0.5).direct_value)) \
        <= 1e-14


def test_relative_index_of_two_twists():
    # A_1 - A_2 = (eta_2 - eta_1)/2 = ((1 - 0.8) - (1 - 0.5))/2 = -0.15.
    result = relative_index_check(circle_spectrum(0.25, 0.0, 300), 1.0,
                                  circle_spectrum(0.4, 0.0, 300), 2.0, 0.5)
    assert result.value == pytest.approx(-0.15, abs=1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_index_report_serialization():
    with_flag = aps_index(_single(), 1.0, g_is_identity=True).to_json_dict()
    assert set(with_flag) == {"as_term", "contribution", "index_value",
                              "eta_half", "est_error", "integrality_residual"}
    assert with_flag["index_value"] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert isinstance(with_flag["integrality_residual"], float)

    without_flag = aps_index(_single(), 1.0, g_is_identity=False).to_json_dict()
    assert without_flag["integrality_residual"] is None


@pytest.mark.parametrize("as_term", [math.nan, math.inf, complex(1.0, math.nan),
                                     complex(0.0, -math.inf)])
def test_every_route_refuses_a_non_finite_interior_term(as_term):
    # The identity is auto-detected on this circle, so aps_index would
    # otherwise round a NaN or an inf to the nearest Gaussian integer.
    spec = circle_spectrum(0.25, 0.0, 10)
    for f1 in (1.0, 2.0):
        with pytest.raises(DomainError, match="as_term must be finite"):
            aps_index(spec, as_term, f1_at_aprime=f1)
    for pair in ((as_term, 0.0), (0.0, as_term)):
        with pytest.raises(DomainError, match="as_term must be finite"):
            relative_index_check(spec, pair[0], spec, pair[1], 0.5)
