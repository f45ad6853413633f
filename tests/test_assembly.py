"""Index assembly: interior term plus boundary contribution."""

import math

import pytest

from cyleta import (
    DomainError,
    aps_index,
    assemble_index,
    circle_spectrum,
    contribution,
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
# assemble_index


def test_assembled_index_from_single_mode():
    report = contribution(_single(), 0.7)
    idx = assemble_index(1.0, report, g_is_identity=True)
    assert idx.index_value == pytest.approx(0.5, abs=1e-12)
    assert idx.contribution == pytest.approx(-0.5, abs=1e-12)
    assert idx.index_value == idx.as_term + idx.contribution
    assert idx.eta_half == 0.5 * report.eta_reference
    # A half-integer index is as far from the integers as possible; with
    # the identity flag set that distance is reported, not rounded away.
    assert idx.integrality_residual == pytest.approx(0.5, abs=1e-12)


def test_assemble_index_defaults_to_no_residual():
    report = contribution(_single(), 0.7)
    assert assemble_index(1.0, report).integrality_residual is None


def test_assemble_index_wants_a_report():
    with pytest.raises(DomainError):
        assemble_index(1.0, {"direct_value": -0.5})


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
    report = contribution(spec, 0.5)
    via_contribution = assemble_index(0.25 + 0.1j, report)
    via_eta = aps_index(spec, 0.25 + 0.1j)
    dev = abs(via_contribution.index_value - via_eta.index_value)
    assert dev <= report.est_error + 1e-12


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
    report = contribution(_single(), 0.7)
    with_flag = assemble_index(1.0, report, g_is_identity=True).to_json_dict()
    assert set(with_flag) == {"as_term", "contribution", "index_value",
                              "eta_half", "est_error", "integrality_residual"}
    assert with_flag["index_value"] == pytest.approx([0.5, 0.0], abs=1e-12)
    assert isinstance(with_flag["integrality_residual"], float)

    without_flag = assemble_index(1.0, report).to_json_dict()
    assert without_flag["integrality_residual"] is None


@pytest.mark.parametrize("as_term", [math.nan, math.inf, complex(1.0, math.nan),
                                     complex(0.0, -math.inf)])
def test_every_route_refuses_a_non_finite_interior_term(as_term):
    # The identity is auto-detected on this circle, so the aps route would
    # otherwise round a NaN or an inf to the nearest Gaussian integer.
    spec = circle_spectrum(0.25, 0.0, 10)
    with pytest.raises(DomainError, match="as_term must be finite"):
        aps_index(spec, as_term)
    with pytest.raises(DomainError, match="as_term must be finite"):
        assemble_index(as_term, contribution(spec, 0.5))
    for pair in ((as_term, 0.0), (0.0, as_term)):
        with pytest.raises(DomainError, match="as_term must be finite"):
            relative_index_check(spec, pair[0], spec, pair[1], 0.5)
