"""Regularized vanishing sums, their certificate, and the dual evaluation
routes (closed form against the Gauss-Legendre rule, and the rule against
scipy's adaptive quadrature); and that no runtime computation evaluates
the vanishing term."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfcx

from cyleta import (
    DomainError,
    VanishingTermConfig,
    aps_index,
    circle_spectrum,
    contribution,
    dirichlet_variant_contribution,
    dump_spectrum,
    eta_invariant,
    from_records,
    relative_index_check,
    vanishing_term_detailed,
    verify_vanishing,
)
from cyleta._special import erfcx as cyleta_erfcx
from cyleta.cli import main
from cyleta.contribution import _collar_radius
from cyleta.spectral import _BLOCK
from cyleta.vanishing import (_NEGLIGIBLE, CertificateFailure, _differences,
                              _dominator_integrals, dominator,
                              per_mode_difference)

from oracles import (closed_form_terms, dominator_integrals_by_quad,
                     per_mode_difference_by_quad)
from test_closed_forms import PROPERTY, finite_spectra

# The grids the CLI and the benchmark reach: collars in [1, 3], the default
# t-sequence, and 4001-mode circles at the identity and at rotation angles
# in [0.55, 0.85].
BENCH_COLLARS = (1.0, 1.37, 2.2, 3.0)
DEFAULT_TS = VanishingTermConfig(a_prime=1.0).t_sequence
BENCH_CIRCLES = [(0.25, 0.0), (0.37, 0.55), (0.81, 0.7), (0.6, 0.85)]

oracle_warnings_are_errors = pytest.mark.filterwarnings(
    "error::scipy.integrate.IntegrationWarning")


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


@pytest.mark.parametrize("a_prime", [1e-160, 1e-200, 1e-320])
def test_vanishing_term_refuses_a_collar_below_the_smallest(a_prime):
    # a'^2 leaves the normal double range: these raised OverflowError at
    # 1e-160 and ZeroDivisionError at 1e-200 and 1e-320.
    with pytest.raises(DomainError, match="at least 1e-150"):
        vanishing_term_detailed(circle_spectrum(0.25, 0.0, 200), a_prime)


def test_vanishing_term_holds_at_the_smallest_collar():
    res = vanishing_term_detailed(circle_spectrum(0.25, 0.0, 200), 1e-150)
    assert res.value == 0j
    assert len(res.partials) == 1009


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


@pytest.mark.parametrize("n_max", [2000, 20000])
@pytest.mark.parametrize("a_prime", [0.01, 0.05, 0.5, 0.84, 2.0])
def test_partials_match_the_full_array_evaluation(n_max, a_prime):
    # Only the live prefix, rank_below of the collar radius, is evaluated:
    # every full-array term past it must be an exact 0, and each partial
    # the sum of the full-array terms on it, block by block, bit for bit.
    # At a' = 0.84 the level t = 2^-10 has a'^2/t = 722.5, so all of its
    # terms are subnormal and a prefix cut short of -746 shows. At
    # a' = 0.01 the live prefixes of the 40001-mode circles span three
    # blocks.
    longest = 0
    for angle in (0.0, 0.7):
        spectrum = circle_spectrum(0.25, angle, n_max)
        res = vanishing_term_detailed(spectrum, a_prime)
        for k, partial in enumerate(res.partials):
            t = 2.0 ** -k
            live = spectrum.rank_below(_collar_radius(a_prime, t))
            terms = closed_form_terms(spectrum.lams, spectrum.traces,
                                      a_prime, t, cyleta_erfcx)
            assert not terms[live:].any()
            composed = 0j
            for lo in range(0, live, _BLOCK):
                composed += complex(terms[lo:min(lo + _BLOCK, live)].sum())
            assert repr(partial) == repr(composed)
            longest = max(longest, live)
    assert (longest > 2 * _BLOCK) == (n_max == 20000 and a_prime == 0.01)


def test_the_verifiers_hold_only_the_live_prefix():
    # Padded to full length, with |a| of every mode, these peaked at 4.81,
    # 4.59 and 2.37 MiB above the spectrum; the first call includes the
    # floor analysis that keeps the trace mass.
    spectrum = circle_spectrum(0.3, 0.7, 100000)
    calls = (lambda: vanishing_term_detailed(spectrum, 0.05),
             lambda: vanishing_term_detailed(spectrum, 1.0),
             lambda: verify_vanishing(spectrum,
                                      VanishingTermConfig(a_prime=1.5)))
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            call()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - held <= 1.5 * 2.0 ** 20
    finally:
        tracemalloc.stop()


def test_verify_vanishing_takes_its_quadrature_in_chunks():
    # At a' = 0.001 and t = 1e-6 the live prefix holds 54589 modes, of
    # which 15026 are kept; at a' = 1e-4 and t = 1e-7, 172731 and 47893,
    # three blocks' worth. Taken in one modes x nodes array, the first
    # quadrature peaked 62.5 MiB above the spectrum; with the kept modes
    # selected over the whole live prefix, the two peaked 1.75 and 3.95 MiB.
    # A block at a time, each peaks at 1.30-1.34 MiB, a chunk's quadrature
    # and one block's selection: within six blocks of complex, 1.5 MiB.
    spectrum = circle_spectrum(0.3, 0.7, 100000)
    spectrum.floor_analysis
    for a_prime, t in ((0.001, 1e-6), (1e-4, 1e-7)):
        cfg = VanishingTermConfig(a_prime=a_prime, t_sequence=(t,))
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            report = verify_vanishing(spectrum, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= 6 * 16 * _BLOCK
        assert spectrum.rank_below(_collar_radius(a_prime, t)) > 100 * _BLOCK // 96
        assert abs(report.rows[0][1]) > 0.0


def test_the_blocks_of_a_row_are_summed_in_order():
    # Past one block a row adds the blocks' sums, which may differ from
    # one sum over the kept prefix in the last bits; the gap stays far
    # below the CLI's 1e-6 tolerance on V.
    spectrum = circle_spectrum(0.25, 0.7, 100000)
    cfg = VanishingTermConfig(a_prime=1e-4, t_sequence=(1e-7,))
    blocked = verify_vanishing(spectrum, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("cyleta.spectral._BLOCK", len(spectrum))
        patch.setattr("cyleta.vanishing._CHUNK", _BLOCK // 96)
        whole = verify_vanishing(spectrum, cfg)
    for (_, got), (_, want) in zip(blocked.rows, whole.rows):
        assert abs(got - want) <= 1e-13 * abs(want)


def test_the_quadrature_chunks_keep_every_row_bit_for_bit(monkeypatch):
    # The kept prefixes span up to 59 chunks; each d is one row of the
    # rule, and the sum over the kept prefix is taken at once, as it was.
    spectrum = circle_spectrum(0.3, 0.7, 5000)
    cfg = VanishingTermConfig(a_prime=0.01, t_sequence=(0.5, 1e-3, 1e-5))
    chunked = verify_vanishing(spectrum, cfg)
    monkeypatch.setattr("cyleta.vanishing._CHUNK", len(spectrum))
    assert repr(verify_vanishing(spectrum, cfg)) == repr(chunked)


def test_the_collar_passes_hold_one_block():
    # At a' = 0.003 every mode of this circle lies in both collar
    # prefixes. Summed over the whole prefix at once, the Dirichlet
    # variant peaked 7.06 MiB above the spectrum and
    # vanishing_term_detailed 6.23 MiB; eta's first query, which both
    # read, is made before tracing.
    spectrum = circle_spectrum(0.3, 0.7, 100000)
    eta_invariant(spectrum)
    assert spectrum.rank_below(373.0 / 0.003) == len(spectrum)
    calls = (lambda: dirichlet_variant_contribution(spectrum, 0.003),
             lambda: vanishing_term_detailed(spectrum, 0.003))
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            call()
            _, peak = tracemalloc.get_traced_memory()
            assert peak - held <= 2.0 * 2.0 ** 20
    finally:
        tracemalloc.stop()


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
    aps_index(spectrum, 0.25)
    aps_index(spectrum, 0.25, f1_at_aprime=2.0)
    relative_index_check(spectrum, 0.0, spectrum, 0.0, 0.5)

    path = tmp_path / "spec.json"
    dump_spectrum(spectrum, path)
    source = ("--twist", "0.25", "--rotation-angle", "0.7", "--n-max", "200")
    for argv in (("contribution", *source, "--a-prime", "0.5"),
                 ("index", *source, "--as-term", "0", "--f1", "2"),
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


@pytest.mark.filterwarnings("error")
def test_dominator_stays_finite_at_tiny_collars():
    # f1's integral is about 1/(lam^2 a'^2) = 1e200 here; the bound must
    # hold it, with no numpy overflow on the way.
    for lam, t in [(1.0, 0.5), (0.5, 1.0), (3.0, 0.01)]:
        f = dominator(t, lam, 1e-100)
        assert math.isfinite(f) and f > 1e40
        d = per_mode_difference(lam, 1e-100, t)
        assert abs(d) <= f * math.exp(-1e-100 * lam / 2.0)


@pytest.mark.filterwarnings("error")
def test_dominator_refuses_collars_past_double_range():
    with pytest.raises(DomainError, match="at least 1e-145"):
        dominator(0.5, 1.0, 1e-170)
    with pytest.raises(DomainError, match="at least 1e-150"):
        dominator(0.5, 1e9, 1e-170)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a_prime", [1e155, 1e300])
def test_dominator_keeps_its_collar_free_term_past_the_square_overflow(
        a_prime):
    # a'^2 is inf, so the f3 head integral starts at inf: an empty row,
    # an exact 0, which leaves f3's a'-free term 2 e^{-lam^2/2}/lam^2.
    lam = 10.25
    assert dominator(0.5, lam, a_prime) \
        == 2.0 * math.exp(-lam * lam / 2.0) / (lam * lam)
    assert per_mode_difference(lam, a_prime, 0.5) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-160, -2e-153, 5e-324])
def test_a_lam_whose_square_underflows_is_refused_by_name(lam):
    # lam^2 leaves the normal range and 746/lam^2 overflows: the rule
    # returned NaN with two overflow warnings.
    message = r"\|lam\| must be at least 1e-150, got .*: below it lam\^2"
    with pytest.raises(DomainError, match=message):
        per_mode_difference(lam, 0.5, 0.5)
    spectrum = from_records([(lam, 1, 1.0, 0.0), (2.5, 1, 0.5, 0.5)])
    with pytest.raises(DomainError, match=message):
        verify_vanishing(spectrum, VanishingTermConfig(a_prime=0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, a_prime, t", [
    (1e-150, 0.5, 0.5), (-1e-150, 1e3, 0.005), (1.0, 1e150, 1e-10)])
def test_the_folded_limit_past_double_range_is_the_ceiling(lam, a_prime, t):
    # a'^2/(lam^2 t) overflows to inf at the last two, quietly; the first
    # integral then runs to the ceiling 746/lam^2, as it would anyway.
    (d,), (err,) = _differences(np.array([lam]), a_prime, t)
    assert math.isfinite(d) and math.isfinite(err)
    assert per_mode_difference(lam, a_prime, t) == d
    if a_prime > 1.0:
        assert d == 0.0  # e^{-a'^2/s} is an exact 0 below the ceiling


def _kept_lams(twist, angle, a_prime, t):
    """The modes verify_vanishing evaluates on a 4001-mode circle: those
    whose envelope sqrt(pi) e^{-lam^2 t - a'^2/t} |a| is not negligible,
    from the full arrays. Each lies in the live prefix, rank_below of the
    collar radius, where the runtime looks for them."""
    spectrum = circle_spectrum(twist, angle, 2000)
    lams, weights = spectrum.lams, np.abs(spectrum.traces)
    damp = np.exp(-(lams * lams) * t - (a_prime * a_prime) / t)
    kept = math.sqrt(math.pi) * damp * weights > _NEGLIGIBLE * weights.sum()
    assert not kept[spectrum.rank_below(_collar_radius(a_prime, t)):].any()
    return lams[kept]


def test_rule_estimate_covers_its_gap_to_the_closed_form():
    lams = np.concatenate([np.geomspace(0.05, 1000.0, 50),
                           -np.geomspace(0.07, 700.0, 20)])
    worst = 0.0
    for a_prime in np.geomspace(0.02, 10.0, 12):
        for t in np.geomspace(0.005, 1.0, 12):
            d, err = _differences(lams, a_prime, t)
            gap = np.abs(d - np.array([_closed_form_d(lam, a_prime, t)
                                       for lam in lams]))
            assert (gap <= err).all(), (a_prime, t, lams[gap > err])
            worst = max(worst, float(gap.max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("a_prime", BENCH_COLLARS)
def test_rule_estimate_covers_the_closed_form_on_circle_modes(a_prime):
    # At the larger collars no mode is kept at the smaller t: e^{-a'^2/t}
    # is negligible on its own.
    checked = 0
    for twist, angle in BENCH_CIRCLES:
        for t in DEFAULT_TS:
            lams = _kept_lams(twist, angle, a_prime, t)
            d, err = _differences(lams, a_prime, t)
            want = np.array([_closed_form_d(lam, a_prime, t) for lam in lams])
            assert (np.abs(d - want) <= err).all()
            checked += lams.size
    assert checked >= 50


@oracle_warnings_are_errors
@pytest.mark.parametrize("lam, a_prime, t", [
    (1.0, 1.0, 1.0), (2.0, 0.5, 0.25), (0.5, 0.5, 0.01), (2.0, 1.0, 0.1),
    (4.0, 0.5, 1.0), (-3.25, 0.02, 0.005), (0.05, 10.0, 1.0),
    (1000.0, 0.02, 0.005), (1.0, 1e-170, 0.5)])
def test_per_mode_difference_agrees_with_adaptive_quadrature(lam, a_prime,
                                                             t):
    (d,), (err,) = _differences(np.array([lam]), a_prime, t)
    assert per_mode_difference(lam, a_prime, t) == d
    want, want_err = per_mode_difference_by_quad(lam, a_prime, t)
    assert abs(d - want) <= err + want_err


def test_quadrature_route_never_calls_erfcx(monkeypatch):
    def erfcx(*args):
        raise AssertionError("the quadrature route used the closed form")

    # Every call of cyleta's erfcx, the one the closed route reaches
    # through the collar piece included, runs its Chebyshev series.
    monkeypatch.setattr("cyleta._special._series", erfcx)
    spectrum = circle_spectrum(0.25, 0.7, 200)
    verify_vanishing(spectrum, VanishingTermConfig(a_prime=0.5))
    per_mode_difference(2.0, 0.5, 0.25)
    dominator(0.1, 2.0, 1.0)
    with pytest.raises(AssertionError):
        vanishing_term_detailed(spectrum, 0.5)


@oracle_warnings_are_errors
@pytest.mark.parametrize("a_prime", BENCH_COLLARS)
def test_circle_rows_agree_with_adaptive_quadrature(a_prime):
    for twist, angle in BENCH_CIRCLES:
        spectrum = circle_spectrum(twist, angle, 2000)
        report = verify_vanishing(spectrum,
                                  VanishingTermConfig(a_prime=a_prime))
        for t, row in report.rows:
            lams = _kept_lams(twist, angle, a_prime, t)
            _, err = _differences(lams, a_prime, t)
            by_lam = dict(zip(spectrum.lams.tolist(), spectrum.traces))
            want, budget = 0j, 0.0
            for lam, rule_err in zip(lams.tolist(), err):
                d, quad_err = per_mode_difference_by_quad(lam, a_prime, t)
                want += lam * by_lam[lam] * d
                budget += abs(lam * by_lam[lam]) * (rule_err + quad_err)
            assert abs(row - want) <= budget + 1e-15 * abs(want)


def _dominator_cases():
    cases = [(0.01, 0.5, 0.5), (0.1, 2.0, 1.0), (1.0, 4.0, 0.5),
             (0.005, 0.05, 0.02), (1.0, 1000.0, 10.0)]
    for a_prime in BENCH_COLLARS:
        for t in DEFAULT_TS:
            # the certificate's sample modes: rank 10000 of a 4001-mode
            # circle is its last mode, and rank 100 of a 401-mode one
            cases += [(t, 2000.25, a_prime), (t, 50.25, a_prime)]
    return cases


@oracle_warnings_are_errors
@pytest.mark.parametrize("t, abs_lambda, a_prime", _dominator_cases())
def test_dominator_agrees_with_adaptive_quadrature(t, abs_lambda, a_prime):
    values, errors = _dominator_integrals(t, abs_lambda, a_prime)
    want, want_errors = dominator_integrals_by_quad(t, abs_lambda, a_prime)
    for value, err, other, other_err in zip(values, errors, want,
                                            want_errors):
        assert abs(value - other) <= err + other_err

    # The same bound assembled from the oracle's integrals. |sqrt x -
    # sqrt y| <= sqrt|x - y| carries the integral errors into f1; f2 is the
    # peak of e^{-a'^2/(2s)} s^{-1/2} at s = min(a'^2, a'^2/(lam^2 t)).
    (inner, head), (inner_err, head_err) = want, want_errors
    lam2 = abs_lambda * abs_lambda
    scale = a_prime / abs_lambda * math.exp(-a_prime * abs_lambda)
    f1 = math.sqrt(scale * inner)
    s_peak = min(a_prime * a_prime, a_prime * a_prime / (lam2 * t))
    f2 = a_prime / abs_lambda * math.exp(-a_prime * a_prime / (2.0 * s_peak)) \
        / math.sqrt(s_peak)
    f3 = head + 2.0 * math.exp(-lam2 / 2.0) / lam2
    budget = max(math.sqrt(scale * (inner_err + errors[0])),
                 head_err + errors[1] + 1e-15 * f2)
    assert abs(dominator(t, abs_lambda, a_prime) - max(f1, f2 + f3)) \
        <= budget


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


@pytest.mark.parametrize("a_prime", ["1", "2.2", "3"])
def test_verify_vanishing_passes_on_bench_circles(capsys, a_prime):
    for twist, angle in BENCH_CIRCLES:
        status = main(["verify-vanishing", "--twist", str(twist),
                       "--rotation-angle", str(angle), "--n-max", "2000",
                       "--a-prime", a_prime])
        result = json.loads(capsys.readouterr().out)["result"]
        assert status == 0
        assert set(result) == {"rows", "certificate_failures", "certified",
                               "final_abs", "tolerance", "passed"}
        assert result["passed"] is True
        assert [row["t"] for row in result["rows"]] == list(DEFAULT_TS)


def test_verify_vanishing_requires_config_type():
    with pytest.raises(DomainError):
        verify_vanishing(_single(1.0), {"a_prime": 1.0})
