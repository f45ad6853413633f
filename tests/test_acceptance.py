"""Acceptance gate: ten criteria, one test and one printed verdict each.

Every test prints a single line naming the criterion, the measured
quantities, and PASS or FAIL before asserting, so the full scoreboard is
visible in the captured output regardless of which assertions trip.

Criterion 6 measures the Dirichlet-variant separation from -eta/2 on a
negative mode, the only place it exists: the spectral condition agrees
with the Dirichlet condition on positive modes, so a positive mode is
checked to show no separation at all.
"""

import math
import time

import mpmath as mp
import pytest

from cyleta import (
    VanishingTermConfig,
    aps_index,
    assemble_index,
    circle_spectrum,
    contribution,
    dirichlet_variant_contribution,
    eta_invariant,
    from_records,
    relative_index_check,
    tail_bound,
    verify_decomposition,
    verify_not_feel_boundary,
    verify_vanishing,
)
from cyleta.identities import (_dirichlet_kernel, _full_line_kernel,
                               _lambda_kernel)
from cyleta.vanishing import dominator, per_mode_difference

from oracles import contribution_by_double_quadrature, eta_by_quadrature


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def circle_quarter():
    return circle_spectrum(0.25, 0.0, 2000)


def test_criterion_01_kernel_decomposition():
    start = time.perf_counter()
    report = verify_decomposition()
    elapsed = time.perf_counter() - start
    ok = report.max_abs <= 1e-11 and elapsed < 1.0
    _verdict(1, "kernel-decomposition", ok,
             f"max {report.max_abs:.3e} <= 1e-11 over {report.samples} "
             f"samples, {elapsed:.2f} s < 1 s")
    assert report.max_abs <= 1e-11
    assert elapsed < 1.0


def test_criterion_02_boundary_vanishing():
    worst = 0.0
    for lam in (0.5, -0.5, 1.0, -1.0, 2.5, -2.5):
        for s in (0.1, 1.0, 10.0):
            value = abs(_lambda_kernel(lam, s, 0.0, 0.0))
            worst = max(worst, value)
    ok = worst <= 1e-12
    _verdict(2, "boundary-vanishing", ok, f"max {worst:.3e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_03_eta_circle_oracle():
    worst_dev = 0.0
    worst_time = 0.0
    with mp.workdps(30):
        for a in (0.1, 0.25, 0.5, 0.9):
            # Independent confirmation of the target: the spectral zeta
            # function of the twisted circle at 0 is the difference of two
            # Hurwitz zeta values, zeta(0, a) - zeta(0, 1 - a) = 1 - 2a.
            hurwitz = float(mp.zeta(0, a) - mp.zeta(0, 1.0 - a))
            assert abs(hurwitz - (1.0 - 2.0 * a)) <= 5e-16
            start = time.perf_counter()
            value = eta_invariant(circle_spectrum(a, 0.0, 2000)).value
            worst_time = max(worst_time, time.perf_counter() - start)
            worst_dev = max(worst_dev, abs(value - hurwitz))
    ok = worst_dev <= 1e-8 and worst_time < 5.0
    _verdict(3, "eta-circle-oracle", ok,
             f"max dev {worst_dev:.3e} <= 1e-8, "
             f"max {worst_time:.2f} s/value < 5 s")
    assert worst_dev <= 1e-8
    assert worst_time < 5.0


def _eta_oracle(spectrum):
    """eta by adaptive quadrature of the heat trace from the resolved floor
    (0 when it is refused), with its error: no erfc-type sum anywhere."""
    s_lo = spectrum.floor_analysis.floor or 0.0
    return eta_by_quadrature(spectrum.lams, spectrum.traces, s_lo)


def _contribution_oracle(spectrum):
    """-sum_j a_j (per-mode contribution by double quadrature), with the
    quadrature's accuracy of 1e-9 per mode (test_contribution.py pins it on
    exactly known modes); "second" on lam > 0 and "first" on lam < 0."""
    value = 0j
    for lam, trace in zip(spectrum.lams.tolist(), spectrum.traces.tolist()):
        side = "second" if lam > 0.0 else "first"
        value += trace * contribution_by_double_quadrature(lam, 0.5, side)
    return value, 1e-9 * float(abs(spectrum.traces).sum())


def test_criterion_04_contribution_is_minus_half_eta(circle_quarter):
    # a' = 0.02 on the 401-mode circle leaves the collar factor live
    # (a'^2/s_f = 0.4): a collar term cut at the floor moves the value by
    # 0.09 there.
    cases = [(circle_quarter, ap) for ap in (0.2, 0.5, 1.0)]
    cases.append((circle_spectrum(0.25, 0.0, 200), 0.02))
    start = time.perf_counter()
    reports = [contribution(spec, ap) for spec, ap in cases]
    elapsed = time.perf_counter() - start

    worst_dev, covered = 0.0, True
    for (spec, _), report in zip(cases, reports):
        eta, oracle_err = _eta_oracle(spec)
        assert oracle_err <= 1e-9
        dev = abs(report.direct_value + 0.5 * eta)
        worst_dev = max(worst_dev, dev)
        covered = covered and dev <= report.est_error + 0.5 * oracle_err
    pairwise_ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            gap = abs(reports[i].direct_value - reports[j].direct_value)
            allowance = 2.0 * (reports[i].est_error + reports[j].est_error)
            pairwise_ok = pairwise_ok and gap <= allowance
    ok = worst_dev <= 1e-6 and covered and pairwise_ok and elapsed < 30.0
    _verdict(4, "contribution-eta-identity", ok,
             f"max |A + eta_quad/2| {worst_dev:.3e} <= 1e-6 and within "
             f"est_error on {len(cases)} collars, pairwise within 2x "
             f"combined est, {elapsed:.2f} s < 30 s")
    assert worst_dev <= 1e-6
    assert covered
    assert pairwise_ok
    assert elapsed < 30.0


def test_criterion_05_vanishing_integral(circle_quarter):
    report = verify_vanishing(circle_quarter, VanishingTermConfig(a_prime=0.5))
    final_abs = abs(report.rows[-1][1])

    cert_ok = True
    worst_margin = math.inf
    for a_prime in (0.5, 1.0):
        for lam in (0.5, 1.0, 2.0, 4.0):
            for t in (0.001, 0.01, 0.1, 1.0):
                d = abs(per_mode_difference(lam, a_prime, t))
                bound = dominator(t, lam, a_prime) \
                    * math.exp(-a_prime * lam / 2.0)
                cert_ok = cert_ok and d <= bound
                if d > 0.0:
                    worst_margin = min(worst_margin, bound / d)
    ok = final_abs <= 1e-6 and report.certified and cert_ok
    _verdict(5, "vanishing-integral", ok,
             f"final partial {final_abs:.3e} <= 1e-6, summability "
             f"certified {report.certified}, dominating bound holds at all "
             f"32 grid points (min margin {worst_margin:.2f}x)")
    assert final_abs <= 1e-6
    assert report.certified
    assert cert_ok


def test_criterion_06_dirichlet_variant_separation():
    """A^F separates from -eta/2 on a negative mode, not on a positive one.

    Per mode, the Dirichlet bracket moves A^F away from -eta/2 by
    -int_0^inf e^{-lam^2 s - a'^2/s} (a'/s - lam) (4 pi s)^{-1/2} ds
    = -(1 - sgn lam) e^{-2 a' |lam|} / 2. The spectral condition is the
    Dirichlet condition on positive modes, so a positive mode carries no
    separation at all, while a negative mode carries exactly
    -e^{-2 a' |lam|}. The separation is therefore measured on the single
    mode lam = -2 at a' = 0.5, where it equals e^{-2}; the mirrored mode
    lam = 2 is checked to agree with -eta/2 to rounding. Both A^F values
    are pinned to the independent semigroup-composition quadrature.
    """
    a_prime = 0.5

    def offset_and_pin(lam):
        # (A^F + eta/2, |A^F - oracle|) for the single mode lam.
        spec = from_records([(lam, 1, 1.0, 0.0)])
        value = dirichlet_variant_contribution(spec, a_prime).value
        oracle = contribution_by_double_quadrature(lam, a_prime,
                                                   derivative="second")
        return (value + 0.5 * eta_invariant(spec).value,
                abs(value.real - oracle))

    defect, pin_dev = offset_and_pin(-2.0)
    separation = abs(defect)
    closed = math.exp(-2.0 * a_prime * 2.0)
    closed_dev = abs(defect + closed)

    offset_pos, pin_dev_pos = offset_and_pin(2.0)
    gap_pos = abs(offset_pos)

    ok = (pin_dev <= 1e-7 and separation > 1e-3 and closed_dev <= 1e-12
          and pin_dev_pos <= 1e-7 and gap_pos <= 1e-12)
    _verdict(6, "dirichlet-variant-separation", ok,
             f"lam = -2: separation {separation:.3e} > 1e-3, within "
             f"{closed_dev:.3e} of e^(-2a'|lam|) = {closed:.3e}, oracle pin "
             f"dev {pin_dev:.3e} <= 1e-7; lam = 2: |A^F + eta/2| "
             f"{gap_pos:.3e} <= 1e-12, oracle pin dev {pin_dev_pos:.3e} "
             f"<= 1e-7")
    assert pin_dev <= 1e-7
    assert separation > 1e-3
    assert closed_dev <= 1e-12
    assert pin_dev_pos <= 1e-7
    assert gap_pos <= 1e-12


def test_criterion_07_relative_cancellation(circle_quarter):
    rebuilt = from_records(zip(
        circle_quarter.lams.tolist(), circle_quarter.multiplicity.tolist(),
        circle_quarter.traces.real.tolist(),
        circle_quarter.traces.imag.tolist()))
    same = abs(relative_index_check(circle_quarter, 2.0, rebuilt, -3.0,
                                    0.5).value)

    with mp.workdps(30):
        eta_04 = mp.zeta(0, 0.4) - mp.zeta(0, 0.6)
        eta_025 = mp.zeta(0, 0.25) - mp.zeta(0, 0.75)
        expected = float((eta_04 - eta_025) / 2)
    assert expected == pytest.approx(-0.15, abs=5e-16)
    two_twists = relative_index_check(circle_quarter, 1.0,
                                      circle_spectrum(0.4, 0.0, 2000), 2.0,
                                      0.5).value
    twist_dev = abs(two_twists - expected)
    ok = same <= 1e-10 and twist_dev <= 1e-6
    _verdict(7, "relative-cancellation", ok,
             f"independent copies {same:.3e} <= 1e-10, two-twist value "
             f"within {twist_dev:.3e} of -0.15")
    assert same <= 1e-10
    assert twist_dev <= 1e-6


def test_criterion_08_route_equality():
    # Both assembly routes against as_term plus an oracle contribution:
    # the per-mode double quadrature on the small spectra, whose floors
    # are refused, and -eta/2 by quadrature from the floor on the circles.
    # The last case leaves the collar factor live (a'^2/s_f = 0.4).
    finite = [
        from_records([(2.0, 1, 1.0, 0.0)]),
        from_records([(-1.25, 1, 1.0, 0.0)]),
        from_records([(-2.0, 1, 1.0, 0.0), (2.0, 1, 1.0, 0.0)]),
        from_records([(0.4, 1, 1.0, 0.0), (-0.9, 1, 0.7, 0.0),
                      (1.6, 2, -1.2, 0.3), (-2.5, 1, 0.5, -0.4)]),
    ]
    cases = [(spec, 0.5, _contribution_oracle(spec)) for spec in finite]
    for spec, a_prime in ((circle_spectrum(0.25, 0.0, 200), 0.5),
                          (circle_spectrum(0.3, 0.7, 150), 0.5),
                          (circle_spectrum(0.25, 0.0, 200), 0.02)):
        eta, oracle_err = _eta_oracle(spec)
        cases.append((spec, a_prime, (-0.5 * eta, 0.5 * oracle_err)))
    as_term = 0.25 + 0.1j
    worst_dev = 0.0
    ok = True
    for spec, a_prime, (want, oracle_err) in cases:
        assert oracle_err <= 1e-8
        via_contribution = assemble_index(as_term, contribution(spec, a_prime))
        via_eta = aps_index(spec, as_term)
        for route in (via_contribution, via_eta):
            dev = abs(route.index_value - (as_term + want))
            worst_dev = max(worst_dev, dev)
            ok = ok and dev <= route.est_error + oracle_err + 1e-12
    ok = ok and worst_dev <= 1e-6
    _verdict(8, "route-equality", ok,
             f"worst gap of either route to the oracle {worst_dev:.3e} "
             f"<= 1e-6 and within est_error on {len(cases)} cases")
    assert ok


def test_criterion_09_boundary_decay():
    times = (1.0, 0.5, 0.1, 0.05, 0.01)

    # Exact per-mode identity in float arithmetic, where the subtraction
    # still carries significant bits.
    worst_float = 0.0
    for s in (1.0, 0.5):
        point = (1.0, s, 1.0, 1.0)
        gap = abs(_dirichlet_kernel(*point) - _full_line_kernel(*point))
        target = math.exp(-s) / math.sqrt(4.0 * math.pi * s) \
            * math.exp(-1.0 / s)
        worst_float = max(worst_float, abs(gap - target) / target)

    # The same identity across all five times in 70-digit arithmetic,
    # where e^{-y^2/s} is resolvable down to s = 0.01.
    worst_mp = 0.0
    with mp.workdps(70):
        for s in times:
            ss, lam, y = mp.mpf(s), mp.mpf(1), mp.mpf(1)
            norm = mp.e ** (-lam * lam * ss) / mp.sqrt(4 * mp.pi * ss)
            kernel_gap = norm * mp.e ** (-(2 * y) ** 2 / (4 * ss))
            target = norm * mp.e ** (-y * y / ss)
            worst_mp = max(worst_mp,
                           float(abs(kernel_gap - target) / target))

    rows = verify_not_feel_boundary(1.0, 1.0, times)
    budget = max(log_dev + 1.0 / s for s, log_dev in rows)

    ok = worst_float <= 1e-14 and worst_mp <= 1e-14 and budget <= 2.0
    _verdict(9, "boundary-decay", ok,
             f"identity rel dev {worst_float:.3e} (float), "
             f"{worst_mp:.3e} (70-digit) <= 1e-14; log-deviation + y^2/s "
             f"bounded by {budget:.3f}")
    assert worst_float <= 1e-14
    assert worst_mp <= 1e-14
    assert budget <= 2.0


def test_criterion_10_tail_bound_soundness():
    # The omitted tail is computed from a spectrum four times longer than
    # the one handed to tail_bound.
    big = circle_spectrum(0.25, 0.0, 40)
    small = circle_spectrum(0.25, 0.0, 10)
    cutoff = small.truncated_at

    ok = True
    worst_ratio = 0.0
    for s_min in (0.1, 1.0, 10.0):
        for a_prime in (0.0, 0.5):
            actual = sum(
                abs(trace) * (abs(lam) + a_prime / s_min + 1.0)
                * math.exp(-lam * lam * s_min)
                for lam, trace in zip(big.lams.tolist(), big.traces.tolist())
                if abs(lam) > cutoff)
            bound = tail_bound(small, s_min, a_prime).bound
            ok = ok and bound >= actual
            if bound > 0.0:
                worst_ratio = max(worst_ratio, actual / bound)
    _verdict(10, "tail-bound-soundness", ok,
             f"omitted tail never exceeds the bound; worst "
             f"actual/bound {worst_ratio:.3e}")
    assert ok
