"""Spans around the benchmark's calls into each cyleta layer.

A traced run records one span per call: its name, start, end, the span
that caused it and the operation it belongs to. Spans stay in memory
until the run writes them out. An untraced run uses NullTracer, which
records nothing.

Counts are taken where the work happens. The traced run wraps scipy's
quad, BoundarySpectrum.__hash__ and the module bindings of eta_invariant,
and adds each call to every open span, so a span's counts include the
work of the calls below it:

* neval: the integrand evaluations quad reports;
* hash: hashes of a spectrum, the key of cyleta's per-spectrum array cache;
* eta: calls of eta_invariant.
"""

from __future__ import annotations

import contextlib
import importlib
import time


class NullTracer:
    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans) + len(self._open), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "op": self._open[0]["id"] if self._open else None,
                  "neval": 0, "hash": 0, "eta": 0, **attrs}
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def _add(self, counter: str, amount: int) -> None:
        for record in self._open:
            record[counter] += amount

    def count_calls(self) -> None:
        """Route quad, the spectrum hash and eta_invariant, as cyleta binds
        them, through counters."""
        import scipy.integrate

        from cyleta.spectral import BoundarySpectrum

        quad = scipy.integrate.quad

        def counted_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            # Only full_output calls report neval; cyleta's _quad makes
            # every such call, the vanishing verifier's own calls do not.
            if kwargs.get("full_output"):
                self._add("neval", out[2]["neval"])
            return out

        scipy.integrate.quad = counted_quad
        importlib.import_module("cyleta.vanishing")._scipy_quad = counted_quad

        spectrum_hash = BoundarySpectrum.__hash__

        def counted_hash(spectrum):
            self._add("hash", 1)
            return spectrum_hash(spectrum)

        BoundarySpectrum.__hash__ = counted_hash

        # The package binds the name `contribution` to the function, so the
        # modules are looked up by their full names.
        modules = [importlib.import_module(name) for name in (
            "cyleta", "cyleta.eta", "cyleta.cli", "cyleta.contribution",
            "cyleta.assembly")]
        eta = modules[1].eta_invariant

        def counted_eta(*args, **kwargs):
            self._add("eta", 1)
            return eta(*args, **kwargs)

        for module in modules:
            module.eta_invariant = counted_eta
