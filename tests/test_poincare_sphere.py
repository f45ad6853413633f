"""The Poincare sphere S^3/I*, built from records: its eta invariant against
Donnelly's average, and a format-2 save and reload.

The Dirac operator of the round S^3 has eigenvalues +-(k + 3/2), k >= 0,
with eigenspaces V_{k+2} (x) V_{k+1} (positive) and V_{k+1} (x) V_{k+2}
(negative) under Spin(4) = SU(2) x SU(2). The binary icosahedral group I*
acts on the first factor, so the quotient keeps dim V_m^{I*} copies of the
second factor, with dim V_m^{I*} = (1/120) sum_g chi_m(g) (Molien) and
chi_m(phi) = sin(m phi) / sin(phi). Donnelly's formula gives
eta(S^3/I*) = (1/|I*|) sum_{g != 1} eta_g(S^3) = -(1/120) sum_{g != 1}
(1/2) csc^2(phi_g / 2) = -1079/720.
"""

import math

import pytest

from cyleta import dump_spectrum, eta_invariant, from_records, load_spectrum

# The conjugacy classes of I* as (SU(2) angle, class size).
CLASSES = [(0.0, 1), (math.pi, 1), (math.pi / 2, 30), (2 * math.pi / 3, 20),
           (math.pi / 3, 20), (2 * math.pi / 5, 12), (4 * math.pi / 5, 12),
           (math.pi / 5, 12), (3 * math.pi / 5, 12)]

ETA = -1079 / 720


def _character(m, phi):
    """chi_m(phi) = sin(m phi) / sin(phi), with its limits at 0 and pi."""
    if phi == 0.0:
        return m
    if phi == math.pi:
        return (-1) ** (m - 1) * m
    return math.sin(m * phi) / math.sin(phi)


def _invariants(m):
    """dim V_m^{I*} by Molien's average, which must be an integer."""
    average = sum(size * _character(m, phi) for phi, size in CLASSES) / 120
    assert abs(average - round(average)) < 1e-9
    return round(average)


def _poincare_sphere(k_max):
    rows = []
    for k in range(k_max + 1):
        positive = _invariants(k + 2) * (k + 1)
        negative = _invariants(k + 1) * (k + 2)
        if positive:
            rows.append((k + 1.5, positive, float(positive), 0.0))
        if negative:
            rows.append((-(k + 1.5), negative, float(negative), 0.0))
    return from_records(rows)


def test_classes_fill_the_group_and_give_the_donnelly_average():
    assert sum(size for _, size in CLASSES) == 120
    average = -sum(size / (2.0 * math.sin(phi / 2) ** 2)
                   for phi, size in CLASSES[1:]) / 120
    assert average == pytest.approx(ETA, rel=1e-14)


def test_molien_counts_start_as_for_the_poincare_sphere():
    # the first invariants of I* sit in degrees m - 1 = 0, 12, 20, 24, 30
    assert [m for m in range(1, 32) if _invariants(m)] == [1, 13, 21, 25, 31]


@pytest.mark.parametrize("k_max, modes", [(200, 171), (400, 371),
                                          (800, 771)])
def test_eta_matches_donnelly_within_its_error(k_max, modes):
    spectrum = _poincare_sphere(k_max)
    assert len(spectrum) == modes
    result = eta_invariant(spectrum)
    assert result.value.imag == 0.0
    assert abs(result.value - ETA) <= result.est_error


@pytest.mark.parametrize("k_max", [200, 800])
def test_format_2_save_and_reload_keep_eta(tmp_path, k_max):
    spectrum = _poincare_sphere(k_max)
    path = tmp_path / "poincare.json"
    dump_spectrum(spectrum, path)
    before, after = eta_invariant(spectrum), eta_invariant(load_spectrum(path))
    assert (after.value, after.est_error, after.truncation_error) == \
        (before.value, before.est_error, before.truncation_error)
