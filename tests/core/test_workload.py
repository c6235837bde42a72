"""Record-level ``ProgramSpec`` preparation (``repro.core.workload``).

A spec carrying a raw record-level trace is lowered to a
``CompiledTrace`` on the fly when it crosses the sweep/cache boundary;
``prepare_specs`` warns about that once per process so callers learn to
compile up front, and stays silent for specs that already are.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.workload import ProgramSpec
from tests.conftest import make_trace


class TestAutoCompileWarnsOnce:
    """Record-level specs crossing the sweep/cache boundary warn once
    per process, then compile silently."""

    def _specs(self):
        trace = make_trace([(1, 0, 65536, "read", 0.0)],
                           file_sizes={1: 65536})
        return (ProgramSpec(trace),)

    def test_warns_once_then_stays_quiet(self, monkeypatch):
        import repro.core.workload as workload
        monkeypatch.setattr(workload, "_warned_auto_compile", False)
        with pytest.warns(DeprecationWarning,
                          match="auto-compiled on the fly"):
            workload.prepare_specs(self._specs())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            workload.prepare_specs(self._specs())
        assert not any(issubclass(w.category, DeprecationWarning)
                       and "auto-compiled" in str(w.message)
                       for w in caught)

    def test_prepared_specs_never_warn(self, monkeypatch):
        import repro.core.workload as workload
        monkeypatch.setattr(workload, "_warned_auto_compile", False)
        prepared = tuple(s.prepared() for s in self._specs())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = workload.prepare_specs(prepared)
        assert out == prepared
        assert not any(issubclass(w.category, DeprecationWarning)
                       and "auto-compiled" in str(w.message)
                       for w in caught)
        assert workload._warned_auto_compile is False
