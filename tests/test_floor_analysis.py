"""The floor analysis: computed once per spectrum, kept as scalars, and
the collar factors skipped where they underflow.

Every query of a spectrum (eta, the APS index, contributions and the
Dirichlet variant at any collar) reads one FloorAnalysis, made by a single
heat-trace pass on first use. A spectrum read back from a file or built by
direct_sum is a new object and analyses its own floor.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from cyleta import (FloorAnalysis, aps_index, circle_spectrum, contribution,
                    direct_sum, dirichlet_variant_contribution, dump_spectrum,
                    eta_invariant, from_records, load_spectrum)
from cyleta.cli import main
from oracles import heat_trace

# The package binds `contribution` to the function, so the modules are
# looked up by their full names.
CONTRIBUTION = importlib.import_module("cyleta.contribution")
SPECTRAL = importlib.import_module("cyleta.spectral")


@pytest.fixture
def analysed(monkeypatch):
    """The spectra the floor analysis ran on, one entry per run."""
    seen = []
    analyse = SPECTRAL._analyse_floor

    def counted(spectrum):
        seen.append(spectrum)
        return analyse(spectrum)

    monkeypatch.setattr(SPECTRAL, "_analyse_floor", counted)
    return seen


def _every_query(spectrum):
    eta_invariant(spectrum)
    aps_index(spectrum, 0.25)
    for a_prime in (0.05, 1.5):
        contribution(spectrum, a_prime)
        dirichlet_variant_contribution(spectrum, a_prime)


def test_one_analysis_per_spectrum(analysed, tmp_path):
    spectrum = circle_spectrum(0.25, 0.7, 2000)
    _every_query(spectrum)
    _every_query(spectrum)
    assert analysed == [spectrum]

    path = tmp_path / "circle.json"
    dump_spectrum(spectrum, path)
    reloaded = load_spectrum(path)
    _every_query(reloaded)
    assert analysed == [spectrum, reloaded]
    assert reloaded.floor_analysis == spectrum.floor_analysis

    merged = direct_sum(spectrum, circle_spectrum(0.6, 0.0, 300))
    _every_query(merged)
    assert analysed == [spectrum, reloaded, merged]


def test_cli_contribution_analyses_once(analysed, capsys):
    status = main(["contribution", "--twist", "0.25", "--n-max", "2000",
                   "--a-prime", "0.05", "--a-prime", "1.5"])
    assert status == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["reports"]) == 2
    assert len(analysed) == 1


def test_no_erfcx_where_the_collar_factor_underflows(monkeypatch):
    # 40001 modes end near Lambda = 20001, so s_f = 40/Lambda^2 ~ 1e-7 and
    # a'^2/s_f ~ 2.5e4 at a' = 0.05: e^{-a'^2/s_f} is 0 on every mode.
    evaluated = []
    erfcx = CONTRIBUTION._erfcx_arr

    def counted(x):
        evaluated.append(np.size(x))
        return erfcx(x)

    monkeypatch.setattr(CONTRIBUTION, "_erfcx_arr", counted)
    spectrum = circle_spectrum(0.3, 0.7, 20000)
    contribution(spectrum, 0.05)
    dirichlet_variant_contribution(spectrum, 0.05)
    assert sum(evaluated) == 0


def test_the_record_leaves_identity_hashing_and_arrays_alone():
    spectrum = circle_spectrum(0.25, 0.0, 500)
    twin = circle_spectrum(0.25, 0.0, 500)
    fields = [f.name for f in dataclasses.fields(spectrum)]
    before = hash(spectrum)
    analysis = spectrum.floor_analysis
    assert spectrum.floor_analysis is analysis
    assert hash(spectrum) == before
    assert spectrum == spectrum and spectrum != twin
    assert analysis == twin.floor_analysis
    assert [f.name for f in dataclasses.fields(spectrum)] == fields
    for array in (spectrum.lams, spectrum.multiplicity, spectrum.traces):
        assert not array.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum.floor_analysis = analysis
    with pytest.raises(dataclasses.FrozenInstanceError):
        analysis.floor = None


def _check_only_scalars_are_kept(spectrum, dirichlet_collars):
    """Every query, the Dirichlet variant at the given collars included,
    keeps nothing but the floor analysis and scalar collar-free sums."""
    eta_invariant(spectrum)
    contribution(spectrum, 0.5)
    contribution(spectrum, 5.0)  # no collar factor lives: eta's kept sum
    aps_index(spectrum, 0.0)
    for a_prime in dirichlet_collars:
        dirichlet_variant_contribution(spectrum, a_prime)
    kept = set(vars(spectrum)) - {f.name for f in dataclasses.fields(spectrum)}
    assert kept == {"floor_analysis", "collar_free"}
    values = dataclasses.astuple(spectrum.floor_analysis)
    assert all(type(v) is float for v in values if v is not None)
    sums = spectrum.collar_free
    assert set(sums) == {"eta", "identity"}
    scalars = [v for value in sums.values()
               for v in (value if isinstance(value, tuple) else (value,))]
    assert {type(v) for v in scalars} <= {float, complex, bool}
    assert not any(isinstance(v, np.ndarray) for v in scalars)
    # lams, multiplicity and traces are the only per-mode arrays: eta's
    # erfc pass, refused floor or not, keeps no array, and the prefix
    # searches bisect lams by |lam| where a kept |lam| array was searched.
    assert not hasattr(spectrum, "abs_lams")
    abs_l = np.abs(spectrum.lams)
    for cutoff in (0.0, *abs_l[[0, 1, abs_l.size // 2, -2, -1]],
                   float(abs_l[abs_l.size // 2]) * (1.0 + 1e-12), math.inf):
        assert spectrum.rank_below(cutoff) \
            == abs_l.searchsorted(cutoff, side="right")


def test_only_scalars_and_the_mode_arrays_are_kept():
    spectrum = circle_spectrum(0.25, 0.7, 500)
    floor = spectrum.floor_analysis.floor
    assert floor is not None
    # The spectral collar factor lives on every, some and no mode.
    _check_only_scalars_are_kept(
        spectrum, (0.05, math.sqrt(720.0 * floor), 5.0))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_only_scalars_are_kept_with_a_refused_floor(sign):
    # one-signed, so the floor is refused
    spectrum = from_records([(sign * (j + 0.5), 1, 1.0, 0.0)
                             for j in range(300)])
    assert spectrum.floor_analysis.floor is None
    # e^{-2 a' |lam|} lives on every, some and no mode.
    _check_only_scalars_are_kept(spectrum, (0.05, 5.0, 1000.0))


def test_fields_match_an_independent_pass():
    spectrum = circle_spectrum(0.25, 0.7, 2000)
    analysis = spectrum.floor_analysis
    lams, traces = spectrum.lams, spectrum.traces
    candidate = 40.0 / spectrum.truncated_at ** 2
    trace = abs(heat_trace(lams, traces, candidate))
    envelope = float((np.abs(traces) * np.abs(lams)
                      * np.exp(-candidate * lams * lams)).sum())
    assert analysis.candidate == candidate
    assert analysis.floor == candidate
    assert analysis.cancellation_ratio == trace / envelope < 1e-6
    assert analysis.skipped_segment \
        == 2.0 / math.sqrt(math.pi) * trace * math.sqrt(candidate)
    assert analysis.trace_mass == float(np.abs(traces).sum())


def test_a_refused_floor_is_reported():
    # One-signed: the trace never cancels, so the floor is refused although
    # the candidate is small.
    analysis = from_records([(j + 0.5, 1, 1.0, 0.0)
                             for j in range(3000)]).floor_analysis
    assert analysis.floor is None
    assert analysis.candidate <= 0.25
    assert analysis.cancellation_ratio > 1e-6
    assert analysis.skipped_segment == 0.0
    assert analysis.trace_mass == 3000.0

    # A sparse spectrum: the candidate itself lies above 1/4.
    sparse = from_records([(2.0, 1, 1.0, 0.0)]).floor_analysis
    assert sparse.floor is None and sparse.candidate == 10.0


def test_json_dict():
    analysis = from_records([(2.0, 1, 1.0, 0.0)]).floor_analysis
    doc = json.loads(json.dumps(analysis.to_json_dict()))
    assert doc == {"floor": None, "candidate": 10.0,
                   "cancellation_ratio": 1.0, "skipped_segment": 0.0,
                   "trace_mass": 1.0}
    assert FloorAnalysis(**doc) == analysis
