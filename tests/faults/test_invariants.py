"""Unit tests for the strict-mode invariant checker."""

import pytest

from repro.core.policies import DiskOnlyPolicy
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.workload import ProgramSpec
from repro.faults.invariants import (
    InvariantChecker,
    SimulationInvariantError,
    check_result,
)
from tests.conftest import make_trace


def _run_tiny():
    trace = make_trace([
        (1, 0, 4096, "read", 0.0),
        (1, 4096, 8192, "read", 1.0),
        (1, 12288, 4096, "read", 30.0),
    ])
    return SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                             seed=1).run()


class TestErrorShape:
    def test_structured_fields(self):
        err = SimulationInvariantError("clock", "went backwards",
                                       {"now": 1.0, "previous": 2.0})
        assert err.check == "clock"
        assert err.context == {"now": 1.0, "previous": 2.0}
        assert "clock" in str(err)
        assert "now=1.0" in str(err)


class TestChecker:
    def test_clock_regression_raises(self):
        checker = InvariantChecker()
        env = MobileSystem(seed=0)
        checker.on_clock(5.0, env)
        with pytest.raises(SimulationInvariantError, match="clock"):
            checker.on_clock(1.0, env)

    def test_duplicate_record_raises(self):
        checker = InvariantChecker()
        checker.on_record("grep", 0, 4096)
        with pytest.raises(SimulationInvariantError, match="exactly-once"):
            checker.on_record("grep", 0, 4096)

    def test_non_causal_service_raises(self):
        checker = InvariantChecker()

        class Result:
            arrival = 10.0
            start = 5.0
            completion = 6.0
            energy = 0.1

        with pytest.raises(SimulationInvariantError, match="service-order"):
            checker.on_service(Result(), program="p", source="disk")

    def test_negative_service_energy_raises(self):
        checker = InvariantChecker()

        class Result:
            arrival = 0.0
            start = 0.0
            completion = 1.0
            energy = -1.0

        with pytest.raises(SimulationInvariantError, match="energy"):
            checker.on_service(Result(), program="p", source="disk")

    def test_missing_record_detected_at_end(self):
        checker = InvariantChecker()
        checker.on_record("grep", 0, 4096)
        result = _run_tiny()
        with pytest.raises(SimulationInvariantError, match="exactly-once"):
            checker.on_end(result, {"grep": (2, 8192)})


class TestCheckResult:
    def test_clean_run_passes(self):
        check_result(_run_tiny())

    def test_corrupted_device_meter_caught(self):
        """A tampered meter total must trip the conservation audit."""
        result = _run_tiny()
        result.disk_energy += 100.0
        with pytest.raises(SimulationInvariantError):
            check_result(result)

    def test_corrupted_breakdown_caught(self):
        result = _run_tiny()
        result.disk_breakdown["disk.active"] = \
            result.disk_breakdown.get("disk.active", 0.0) + 50.0
        with pytest.raises(SimulationInvariantError, match="breakdown"):
            check_result(result)


class TestStrictMode:
    def test_strict_replay_passes_all_policies(self):
        from repro.core.bluefs import BlueFSPolicy
        from repro.core.flexfetch import FlexFetchPolicy
        from repro.core.policies import WnicOnlyPolicy
        from repro.core.profile import profile_from_trace
        trace = make_trace([
            (1, i * 4096, 4096, "read", i * 2.0) for i in range(12)
        ])
        for policy in (DiskOnlyPolicy(), WnicOnlyPolicy(), BlueFSPolicy(),
                       FlexFetchPolicy(profile_from_trace(trace))):
            result = SimulationSession([ProgramSpec(trace)], policy, seed=1,
                                       strict=True).run()
            assert result.requests > 0

    def test_strict_passes_on_scenario_workload(self):
        """Strict mode stays silent on a real figure workload."""
        from repro.core.flexfetch import FlexFetchPolicy
        from repro.traces.synth.scenarios import build_scenario
        scenario = build_scenario("grep", seed=7)
        result = SimulationSession(
            list(scenario.programs),
            FlexFetchPolicy(scenario.profile), seed=7, strict=True).run()
        assert result.total_energy > 0
