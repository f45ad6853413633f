"""Grid verification of the kernel identities and the decay certificate."""

import math

import pytest

import cyleta
from cyleta import (
    BOUNDARY_GRID,
    DECOMPOSITION_GRID,
    DomainError,
    KernelGrid,
    ModePoint,
    VerificationError,
    dirichlet_lambda_combination,
    lambda_mode_kernel,
    verify_boundary_vanish,
    verify_decomposition,
    verify_not_feel_boundary,
)


def test_decomposition_holds_on_default_grid():
    report = verify_decomposition()
    assert report.max_abs <= 1e-12
    assert report.argmax in [
        (lam, s, y, yp)
        for lam in DECOMPOSITION_GRID.lambdas
        for s in DECOMPOSITION_GRID.times
        for y in DECOMPOSITION_GRID.coords
        for yp in DECOMPOSITION_GRID.coords
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
    assert BOUNDARY_GRID.coords == (0.0,)


def test_decomposition_on_custom_grid():
    grid = KernelGrid(lambdas=(-2.0, 0.5), times=(0.2, 2.0),
                      coords=(0.1, 1.0))
    report = verify_decomposition(grid)
    assert report.max_abs <= 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(lambdas=(), times=(1.0,), coords=(0.0,)),
    dict(lambdas=(0.0,), times=(1.0,), coords=(0.0,)),
    dict(lambdas=(1.0,), times=(0.0,), coords=(0.0,)),
    dict(lambdas=(1.0,), times=(-1.0,), coords=(0.0,)),
    dict(lambdas=(1.0,), times=(1.0,), coords=(-0.2,)),
    dict(lambdas=(math.nan,), times=(1.0,), coords=(0.0,)),
])
def test_kernel_grid_validation(kwargs):
    with pytest.raises(DomainError):
        KernelGrid(**kwargs)


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
    monkeypatch.setattr("cyleta.identities.dirichlet_mode_kernel",
                        lambda p: 0.0)
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
    """Every deviation verify_decomposition sees, with its point, in the
    order lambdas, times, y, y'."""
    return [((lam, s, y, yp),
             abs(lambda_mode_kernel(ModePoint(lam, s, y, yp))
                 - dirichlet_lambda_combination(ModePoint(lam, s, y, yp))))
            for lam in grid.lambdas for s in grid.times
            for y in grid.coords for yp in grid.coords]


def _boundary_scan(grid):
    """Every deviation verify_boundary_vanish sees: the corner y = y' = 0
    of each (lam, s) pair, in the order lambdas, times."""
    return [((lam, s, 0.0, 0.0),
             abs(lambda_mode_kernel(ModePoint(lam, s, 0.0, 0.0))))
            for lam in grid.lambdas for s in grid.times]


# On the small decomposition grid the largest deviation, 2**-53, is reached
# at two points, on the default boundary grid 2**-55 is, and on the
# one-signed grid every deviation is 0, so the first argmax is checked on
# ties as well.
@pytest.mark.parametrize("verify, scan, grid, ties", [
    (verify_decomposition, _decomposition_scan, DECOMPOSITION_GRID, False),
    (verify_decomposition, _decomposition_scan,
     KernelGrid(lambdas=(-2.0, 0.5), times=(0.2, 2.0), coords=(0.1, 1.0)),
     True),
    (verify_boundary_vanish, _boundary_scan, BOUNDARY_GRID, True),
    (verify_boundary_vanish, _boundary_scan,
     KernelGrid(lambdas=(0.5, 1.0, 2.5), times=(0.1, 1.0), coords=(0.0,)),
     True),
])
def test_reports_equal_a_brute_force_scan_of_the_grid(verify, scan, grid,
                                                      ties):
    scanned = scan(grid)
    worst = max(dev for _, dev in scanned)
    first = next(point for point, dev in scanned if dev == worst)
    assert (sum(dev == worst for _, dev in scanned) > 1) == ties
    report = verify(grid)
    assert report.max_abs == worst
    assert report.argmax == first
    assert report.samples == len(scanned)
