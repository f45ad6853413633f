"""Regularized vanishing sums, their certificate, and the dual evaluation
routes (closed form against adaptive quadrature); and that no runtime
computation evaluates the vanishing term."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfcx

from cyleta import (
    CertificateFailure,
    DomainError,
    VanishingTermConfig,
    aps_index,
    assemble_index,
    circle_spectrum,
    contribution,
    dominator,
    dump_spectrum,
    from_records,
    per_mode_difference,
    relative_index_check,
    vanishing_term_detailed,
    verify_vanishing,
)
from cyleta.cli import main

from test_closed_forms import PROPERTY, finite_spectra


def _single(lam=1.0):
    return from_records([(lam, 1, 1.0, 0.0)])


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kwargs", [
    dict(a_prime=0.0),
    dict(a_prime=-1.0),
    dict(a_prime=math.nan),
    dict(a_prime=1.0, t_sequence=()),
    dict(a_prime=1.0, t_sequence=(1.5, 0.1)),
    dict(a_prime=1.0, t_sequence=(0.5, 0.0)),
    dict(a_prime=1.0, t_sequence=(0.5, 0.5)),
    dict(a_prime=1.0, t_sequence=(0.1, 0.5)),
    dict(a_prime=1.0, cutoff_rank=0),
    dict(a_prime=1.0, cutoff_rank=-5),
    dict(a_prime=1.0, cutoff_rank=2.5),
    dict(a_prime=1.0, cutoff_rank=True),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        VanishingTermConfig(**kwargs)


def test_config_defaults():
    cfg = VanishingTermConfig(a_prime=0.5)
    assert cfg.t_sequence == (0.5, 0.1, 0.02)
    assert cfg.cutoff_rank == 10_000


# ---------------------------------------------------------------------------
# the closed-form limit


def test_vanishing_term_single_mode():
    assert abs(vanishing_term_detailed(_single(1.0), 1.0).value) <= 1e-8


def test_vanishing_term_symmetric_cancels_exactly():
    sym = from_records([(1.0, 1, 1.0, 0.0), (-1.0, 1, 1.0, 0.0)])
    assert vanishing_term_detailed(sym, 1.0).value == 0j


def test_vanishing_term_detailed_evidence():
    res = vanishing_term_detailed(_single(1.0), 1.0)
    assert len(res.partials) >= 3
    assert math.isfinite(res.est_error) and res.est_error >= 0.0
    assert abs(res.value) <= res.est_error + 1e-15


@pytest.mark.parametrize("a_prime", [0.02, 0.05, 0.08, 0.1])
def test_vanishing_term_is_exactly_zero_at_small_collars(a_prime):
    # The dyadic sequence runs until e^{-a'^2/t} underflows, so the last
    # partials are exact zeros however narrow the collar.
    res = vanishing_term_detailed(circle_spectrum(0.25, 0.0, 2000), a_prime)
    assert res.value == 0j
    assert res.partials[-2:] == (0j, 0j)


def test_vanishing_term_rejects_bad_a_prime():
    with pytest.raises(DomainError):
        vanishing_term_detailed(_single(), 0.0)


@PROPERTY
@given(spectrum=finite_spectra(), a_prime=st.floats(0.02, 50.0))
def test_partials_are_bounded_and_end_in_exact_zeros(spectrum, a_prime):
    # erfcx <= 1 on the nonnegative axis and every exponent is negative, so
    # no partial can exceed sqrt(pi) times the trace mass.
    res = vanishing_term_detailed(spectrum, a_prime)
    bound = math.sqrt(math.pi) * float(np.abs(spectrum.traces).sum())
    assert all(abs(p) <= bound for p in res.partials)
    assert res.partials[-2:] == (0j, 0j)
    assert res.value == 0j
    assert res.est_error == 0.0


def test_runtime_never_evaluates_the_vanishing_term(monkeypatch, capsys,
                                                    tmp_path):
    def evaluated(*args):
        raise AssertionError("the vanishing term was evaluated")

    monkeypatch.setattr("cyleta.vanishing._closed_form_partial", evaluated)
    spectrum = circle_spectrum(0.25, 0.7, 200)
    with pytest.raises(AssertionError):
        vanishing_term_detailed(spectrum, 0.5)

    report = contribution(spectrum, 0.5)
    assert report.vanishing_residual == 0j
    assert report.decomposed_value == -0.5 * report.eta_reference
    assemble_index(0.25, report)
    aps_index(spectrum, 0.25)
    relative_index_check(spectrum, 0.0, spectrum, 0.0, 0.5)

    path = tmp_path / "spec.json"
    dump_spectrum(spectrum, path)
    source = ("--twist", "0.25", "--rotation-angle", "0.7", "--n-max", "200")
    for argv in (("contribution", *source, "--a-prime", "0.5"),
                 ("index", *source, "--as-term", "0", "--a-prime", "0.5"),
                 ("index", *source, "--as-term", "0"),
                 ("relative", "--spectrum", str(path), "--spectrum",
                  str(path), "--a-prime", "0.5")):
        assert main(list(argv)) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == []


# ---------------------------------------------------------------------------
# one mode, two routes


def _closed_form_d(lam, a_prime, t):
    z = abs(lam) * math.sqrt(t) + a_prime / math.sqrt(t)
    expo = -lam * lam * t - a_prime * a_prime / t
    return -math.sqrt(math.pi) * math.copysign(1.0, lam) \
        * float(erfcx(z)) * math.exp(expo) / lam


@pytest.mark.parametrize("lam, a_prime, t, frozen", [
    (1.0, 1.0, 1.0, -0.06126317677391655),
    (2.0, 0.5, 0.25, -0.030631588386958276),
])
def test_quadrature_route_against_closed_form(lam, a_prime, t, frozen):
    """The same per-mode difference two ways: adaptive quadrature of the
    kernel difference, and the erfcx closed form (here with the frozen
    values noted so neither route can drift silently)."""
    quad_route = per_mode_difference(lam, a_prime, t)
    assert quad_route == pytest.approx(_closed_form_d(lam, a_prime, t),
                                       abs=1e-10)
    assert quad_route == pytest.approx(frozen, abs=1e-10)


def test_difference_not_zero_at_matched_scales():
    # t = a'/|lam| balances the two exponential scales; the value is
    # small there but genuinely nonzero
    assert abs(per_mode_difference(1.0, 1.0, 1.0)) > 0.05


def test_dominator_bounds_the_difference():
    for lam, t, a_prime in [(0.5, 0.01, 0.5), (2.0, 0.1, 1.0),
                            (4.0, 1.0, 0.5)]:
        lhs = abs(per_mode_difference(lam, a_prime, t))
        f = dominator(t, lam, a_prime)
        assert f > 0.0
        assert lhs <= f * math.exp(-a_prime * lam / 2.0)


# ---------------------------------------------------------------------------
# the spectrum-level verifier


def test_verify_vanishing_circle_rows():
    report = verify_vanishing(circle_spectrum(0.25, 0.0, 200),
                              VanishingTermConfig(a_prime=0.5))
    assert report.certified
    assert not report.certificate_failures
    assert len(report.rows) == 3
    values = dict(report.rows)
    assert values[0.5].real == pytest.approx(-0.2860770840186639, abs=1e-9)
    assert values[0.1].real == pytest.approx(-0.0225740779020726, abs=1e-9)
    assert values[0.02].real == pytest.approx(-5.0867066e-07, abs=1e-9)
    # partial sums of an identity-element spectrum stay real
    assert all(v.imag == 0.0 for v in values.values())


def test_verify_vanishing_certificate_failure_is_evidence():
    report = verify_vanishing(circle_spectrum(0.25, 0.0, 200),
                              VanishingTermConfig(a_prime=0.5,
                                                  cutoff_rank=100))
    assert not report.certified
    assert report.certificate_failures
    for failure in report.certificate_failures:
        assert isinstance(failure, CertificateFailure)
        assert failure.rank == 100
        assert failure.term > failure.threshold


def test_verify_vanishing_report_serializes():
    report = verify_vanishing(_single(1.0), VanishingTermConfig(a_prime=1.0))
    doc = report.to_json_dict()
    assert set(doc) == {"rows", "certificate_failures", "certified"}
    assert doc["rows"][0]["t"] == 0.5
    assert len(doc["rows"][0]["partial_sum"]) == 2


def test_verify_vanishing_requires_config_type():
    with pytest.raises(DomainError):
        verify_vanishing(_single(1.0), {"a_prime": 1.0})
