"""The collar-free sums: made once per spectrum, kept as scalars, and never
a reason for a query to answer differently.

eta's sum, the spectral kernel's collar-free sum and the identity flag do
not depend on the collar, so spectrum.collar_free keeps each after the
first query that needs it. These tests count how often each is made, check
that a lone query makes only what it needs, and compare every value and
est_error of a query on a spectrum that already served other collars with
the same query on a freshly built spectrum, by repr.
"""

import dataclasses
import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from cyleta import (aps_index, circle_spectrum, contribution,
                    dirichlet_variant_contribution, eta_invariant,
                    from_records)
from cyleta.cli import main

from test_closed_forms import finite_spectra

# The package binds `contribution` to the function, so the modules are
# looked up by their full names.
ETA = importlib.import_module("cyleta.eta")
CONTRIBUTION = importlib.import_module("cyleta.contribution")
ASSEMBLY = importlib.import_module("cyleta.assembly")

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)

# On a 4001-mode circle s_f is about 1e-5, so the spectral collar factor
# lives on some modes at a' = 0.05 and on none at a' >= 0.09.
COLLARS = (0.05, 0.5, 1.5, 0.02, 3.0)


@pytest.fixture
def made(monkeypatch):
    """The spectra each collar-free sum was made for, by name."""
    seen = {"eta": [], "spectral": [], "identity": []}
    for module, attr, name in ((ETA, "_eta_sums", "eta"),
                               (CONTRIBUTION, "_spectral_sums", "spectral"),
                               (ASSEMBLY, "_is_identity", "identity")):
        def counted(spectrum, compute=getattr(module, attr), name=name):
            seen[name].append(spectrum)
            return compute(spectrum)

        monkeypatch.setattr(module, attr, counted)
    return seen


def _every_query(spectrum):
    eta_invariant(spectrum)
    aps_index(spectrum, 0.25)
    for a_prime in COLLARS:
        contribution(spectrum, a_prime)
        dirichlet_variant_contribution(spectrum, a_prime)


@pytest.mark.parametrize("make", [
    lambda: circle_spectrum(0.25, 0.7, 2000),
    lambda: circle_spectrum(0.3, 0.0, 200),
    # one-signed, so the floor is refused
    lambda: from_records([(j + 0.5, 1, 1.0, 0.0) for j in range(300)]),
], ids=["circle-4001", "identity-circle-401", "refused-floor"])
def test_one_collar_free_pass_per_spectrum(made, make):
    spectrum = make()
    _every_query(spectrum)
    _every_query(spectrum)
    assert made == {"eta": [spectrum], "spectral": [spectrum],
                    "identity": [spectrum]}


def test_a_lone_query_makes_only_what_it_reads(made):
    spectrum = circle_spectrum(0.25, 0.7, 2000)
    eta_invariant(spectrum)
    assert set(spectrum.collar_free) == {"eta"}
    dirichlet_variant_contribution(spectrum, 0.5)
    contribution(spectrum, 0.05)  # a live prefix: the kept sum is not read
    assert set(spectrum.collar_free) == {"eta"}
    aps_index(spectrum, 0.0, g_is_identity=False)
    assert set(spectrum.collar_free) == {"eta"}
    contribution(spectrum, 0.5)
    assert set(spectrum.collar_free) == {"eta", "spectral"}
    assert [len(v) for v in made.values()] == [1, 1, 0]


def test_cli_contribution_sums_eta_once(made, capsys):
    status = main(["contribution", "--twist", "0.25", "--n-max", "2000",
                   "--a-prime", "0.05", "--a-prime", "1.5"])
    assert status == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["reports"]) == 2
    assert len(made["eta"]) == 1
    assert len(made["spectral"]) == 1


def test_cli_aps_index_sums_eta_once(made, capsys):
    status = main(["index", "--twist", "0.25", "--n-max", "2000",
                   "--as-term", "0.5,0"])
    assert status == 0
    assert json.loads(capsys.readouterr().out)["result"]["route"] == "aps"
    assert len(made["eta"]) == 1
    assert len(made["identity"]) == 1


def _answers(spectrum, a_prime):
    """The repr of every value and est_error of the queries at a'."""
    eta = eta_invariant(spectrum)
    index = aps_index(spectrum, 0.25)
    report = contribution(spectrum, a_prime, 1.3)
    dirichlet = dirichlet_variant_contribution(spectrum, a_prime)
    return repr((eta.value, eta.est_error, eta.truncation_error,
                 index.index_value, index.est_error,
                 index.integrality_residual, report.direct_value,
                 report.decomposed_value, report.eta_reference,
                 report.est_error, dirichlet.value, dirichlet.est_error))


def _fresh(spectrum):
    """A new spectrum of the same modes and metadata, with nothing kept."""
    return dataclasses.replace(spectrum)


def _check_order_independence(spectrum, collars):
    served = _fresh(spectrum)
    for a_prime in collars:
        assert _answers(served, a_prime) \
            == _answers(_fresh(spectrum), a_prime), a_prime
    for a_prime in reversed(collars):  # now every sum is kept
        assert _answers(served, a_prime) \
            == _answers(_fresh(spectrum), a_prime), a_prime


@pytest.mark.parametrize("n_max", [200, 2000])
@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_circle_answers_do_not_depend_on_earlier_queries(n_max, angle):
    spectrum = circle_spectrum(0.3, angle, n_max)
    floor = spectrum.floor_analysis.floor
    # collars with every, some and no spectral collar factor live
    collars = COLLARS + tuple((offset * floor) ** 0.5
                              for offset in (100.0, 720.0, 745.9, 800.0))
    _check_order_independence(spectrum, collars)


@PROPERTY
@given(finite_spectra(), st.lists(st.floats(0.01, 5.0), min_size=1,
                                  max_size=4))
def test_finite_spectra_answers_do_not_depend_on_earlier_queries(spectrum,
                                                                 collars):
    _check_order_independence(spectrum, collars)
