"""Grid verification of the kernel identities and the decay certificate."""

import math

import pytest

from cyleta import (
    DomainError,
    VerificationError,
    verify_boundary_vanish,
    verify_decomposition,
    verify_not_feel_boundary,
)
from cyleta.identities import (_BOUNDARY_GRID, _DECOMPOSITION_GRID,
                               _dirichlet_lambda_combination, _lambda_kernel)


def test_decomposition_holds_on_default_grid():
    report = verify_decomposition()
    assert report.max_abs <= 1e-12
    lambdas, times, coords = _DECOMPOSITION_GRID
    assert report.argmax in [
        (lam, s, y, yp)
        for lam in lambdas for s in times for y in coords for yp in coords
    ]


def test_decomposition_report_shape():
    report = verify_decomposition()
    doc = report.to_json_dict()
    assert set(doc) == {"max_abs", "argmax", "samples"}
    assert doc["max_abs"] == report.max_abs
    # 6 eigenvalues x 3 times x 4 x 4 coordinate pairs
    assert report.samples == 288


def test_boundary_vanishing_on_default_grid():
    report = verify_boundary_vanish()
    assert report.max_abs <= 1e-14
    assert report.argmax[2:] == (0.0, 0.0)


def test_decomposition_on_custom_grid():
    # the identity holds off the compiled-in grid too
    scanned = _decomposition_scan(((-2.0, 0.5), (0.2, 2.0), (0.1, 1.0)))
    assert max(dev for _, dev in scanned) <= 1e-12


# ---------------------------------------------------------------------------
# the short-time decay certificate


def test_not_feel_boundary_returns_decay_rows():
    times = (1.0, 0.5, 0.1, 0.05, 0.01)
    rows = verify_not_feel_boundary(1.0, 1.0, times)
    assert [s for s, _ in rows] == list(times)
    # log|deviation| + y^2/s stays bounded; the analytic value of the
    # budget is log N = -lam^2 s - log(4 pi s)/2, small at these times
    budget = [dev + 1.0 / s for s, dev in rows]
    assert all(b <= 2.0 for b in budget)
    # underflow at the smallest time reports -inf, which is fine
    assert rows[-1][1] == -math.inf


def test_not_feel_boundary_flags_violations(monkeypatch):
    # a broken absorbing kernel makes the deviation order one
    monkeypatch.setattr("cyleta.identities._dirichlet_kernel",
                        lambda *p: 0.0)
    with pytest.raises(VerificationError) as err:
        verify_not_feel_boundary(1.0, 1.0, (1.0, 0.5, 0.1))
    assert set(err.value.evidence) == {"s", "log_dev", "bound"}


@pytest.mark.parametrize("lam, y, times", [
    (0.0, 1.0, (1.0, 0.5)),
    (1.0, 0.0, (1.0, 0.5)),
    (1.0, -1.0, (1.0, 0.5)),
    (1.0, 1.0, ()),
    (1.0, 1.0, (0.5, 1.0)),
    (1.0, 1.0, (1.0, -0.5)),
])
def test_not_feel_boundary_rejects_bad_arguments(lam, y, times):
    with pytest.raises(DomainError):
        verify_not_feel_boundary(lam, y, times)


def test_identity_checks_are_deterministic():
    a = verify_decomposition()
    b = verify_decomposition()
    assert a.max_abs == b.max_abs and a.argmax == b.argmax


def _decomposition_scan(grid):
    """Every deviation verify_decomposition sees on a (lambdas, times,
    coords) grid, with its point, in the order lambdas, times, y, y'."""
    lambdas, times, coords = grid
    return [((lam, s, y, yp),
             abs(_lambda_kernel(lam, s, y, yp)
                 - _dirichlet_lambda_combination(lam, s, y, yp)))
            for lam in lambdas for s in times for y in coords for yp in coords]


def _boundary_scan(grid):
    """Every deviation verify_boundary_vanish sees: the corner y = y' = 0
    of each (lam, s) pair of a (lambdas, times) grid, in that order."""
    lambdas, times = grid
    return [((lam, s, 0.0, 0.0), abs(_lambda_kernel(lam, s, 0.0, 0.0)))
            for lam in lambdas for s in times]


# On the boundary grid the largest deviation, 2**-55, is reached at two
# points, so the first argmax is checked on ties as well.
@pytest.mark.parametrize("verify, scan, grid, ties", [
    (verify_decomposition, _decomposition_scan, _DECOMPOSITION_GRID, False),
    (verify_boundary_vanish, _boundary_scan, _BOUNDARY_GRID, True),
])
def test_reports_equal_a_brute_force_scan_of_the_grid(verify, scan, grid,
                                                      ties):
    scanned = scan(grid)
    worst = max(dev for _, dev in scanned)
    first = next(point for point, dev in scanned if dev == worst)
    assert (sum(dev == worst for _, dev in scanned) > 1) == ties
    report = verify()
    assert report.max_abs == worst
    assert report.argmax == first
    assert report.samples == len(scanned)
