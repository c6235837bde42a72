"""Public-API surface tests.

The README and examples program against ``repro``'s top-level names;
these tests pin that surface so refactors can't silently break
downstream users.
"""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self) -> None:
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_imports(self) -> None:
        # The exact import list the README's quickstart uses.
        from repro import (  # noqa: F401
            DiskOnlyPolicy,
            FlexFetchPolicy,
            ProgramSpec,
            SimulationSession,
            profile_from_trace,
        )

    def test_version(self) -> None:
        assert repro.__version__.count(".") == 2

    def test_units_exported(self) -> None:
        assert repro.units.SECOND.dimension == "time"
        assert repro.approx_eq(1.0, 1.0 + 1e-12)
        duration: repro.Seconds = 0.5
        assert isinstance(duration, float)

    def test_paper_constants_exported(self) -> None:
        assert repro.HITACHI_DK23DA.active_power == 2.0
        assert repro.AIRONET_350.cam_idle_power == 1.41


class TestRetiredNames:
    def test_replay_simulator_shim_is_gone(self) -> None:
        assert not hasattr(repro, "ReplaySimulator")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.simulator")


class TestSubpackageImports:
    @pytest.mark.parametrize("module", [
        "repro.sim", "repro.sim.clock", "repro.sim.engine",
        "repro.sim.events", "repro.sim.metrics", "repro.sim.rng",
        "repro.devices", "repro.devices.disk", "repro.devices.dpm",
        "repro.devices.layout", "repro.devices.power",
        "repro.devices.specs", "repro.devices.wnic",
        "repro.kernel", "repro.kernel.cache", "repro.kernel.page",
        "repro.kernel.readahead", "repro.kernel.scheduler",
        "repro.kernel.vfs", "repro.kernel.writeback",
        "repro.traces", "repro.traces.io", "repro.traces.record",
        "repro.traces.strace", "repro.traces.trace",
        "repro.traces.synth", "repro.traces.synth.scenarios",
        "repro.core", "repro.core.burst", "repro.core.bluefs",
        "repro.core.decision", "repro.core.estimator",
        "repro.core.flexfetch", "repro.core.oracle",
        "repro.core.policies", "repro.core.profile",
        "repro.core.session", "repro.core.system",
        "repro.core.telemetry", "repro.core.workload",
        "repro.experiments", "repro.experiments.config",
        "repro.experiments.figures", "repro.experiments.report",
        "repro.experiments.runner", "repro.experiments.sensitivity",
        "repro.experiments.svg", "repro.experiments.tables",
        "repro.experiments.validate",
        "repro.faults", "repro.faults.invariants",
        "repro.faults.schedule",
        "repro.units",
        "repro.lint", "repro.lint.findings", "repro.lint.rules",
        "repro.lint.runner", "repro.lint.suppressions",
        "repro.lint.unitinfer",
        "repro.cli",
    ])
    def test_module_imports(self, module: str) -> None:
        importlib.import_module(module)

    @pytest.mark.parametrize("module", [
        "repro", "repro.sim", "repro.devices", "repro.kernel",
        "repro.traces", "repro.core", "repro.experiments",
        "repro.faults", "repro.lint",
    ])
    def test_packages_have_docstrings(self, module: str) -> None:
        assert importlib.import_module(module).__doc__


class TestDocstringCoverage:
    """Every public callable on the top-level surface is documented."""

    def test_exported_objects_documented(self) -> None:
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert getattr(obj, "__doc__", None), name

    def test_policy_methods_documented(self) -> None:
        from repro.core.policies import Policy
        for method in ("choose", "route", "on_serviced", "on_syscall",
                       "on_tick", "on_external_disk_request"):
            assert getattr(Policy, method).__doc__, method
