"""Tests for the physical-consistency validators — and, through them,
energy-conservation integration tests of the whole simulator."""


import pytest

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.validate import validate_run
from tests.conftest import make_trace


def run(trace, policy, **kw):
    return SimulationSession([ProgramSpec(trace)], policy, seed=3,
                             **kw).run()


def mixed_trace():
    calls = []
    t = 0.0
    for i in range(30):
        calls.append((1, i * 131072, 131072, "read", t))
        t += 0.8 if i % 3 else 25.0
    calls.append((2, 0, 262144, "write", t))
    return make_trace(calls, name="mixed",
                      file_sizes={1: 30 * 131072, 2: 262144})


class TestCleanRunsValidate:
    @pytest.mark.parametrize("policy_factory", [
        DiskOnlyPolicy, WnicOnlyPolicy, BlueFSPolicy])
    def test_fixed_and_reactive_policies(self, policy_factory):
        issues = validate_run(run(mixed_trace(), policy_factory()))
        assert issues == [], [str(i) for i in issues]

    def test_flexfetch_run(self):
        trace = mixed_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        issues = validate_run(run(trace, policy))
        assert issues == [], [str(i) for i in issues]

    def test_every_table3_workload_validates(self):
        """End-to-end conservation across all six applications."""
        from repro.traces.synth import TABLE3_GENERATORS
        for name, gen in TABLE3_GENERATORS.items():
            trace = gen(seed=3)
            result = run(trace, DiskOnlyPolicy())
            issues = validate_run(result)
            assert issues == [], (name, [str(i) for i in issues])


class TestDetectsCorruption:
    def _clean_result(self):
        return run(mixed_trace(), DiskOnlyPolicy())

    def test_detects_energy_mismatch(self):
        result = self._clean_result()
        result.disk_breakdown["disk.active"] += 100.0
        assert any(i.check == "breakdown"
                   for i in validate_run(result))

    def test_detects_residency_gap(self):
        result = self._clean_result()
        result.disk_residency["idle"] += 100.0
        checks = {i.check for i in validate_run(result)}
        assert "residency" in checks or "conservation" in checks

    def test_detects_negative_energy(self):
        result = self._clean_result()
        result.disk_energy = -1.0
        assert any(i.check == "energy" for i in validate_run(result))

    def test_detects_time_inversion(self):
        result = self._clean_result()
        result.foreground_time = result.end_time + 5.0
        assert any(i.check == "time" for i in validate_run(result))

    def test_detects_ghost_bytes(self):
        result = self._clean_result()
        result.device_bytes["network"] = 1000
        result.device_requests["network"] = 0
        assert any(i.check == "routing" for i in validate_run(result))

    def test_detects_conservation_violation(self):
        result = self._clean_result()
        result.disk_energy += 500.0
        result.disk_breakdown["disk.active"] += 500.0
        assert any(i.check == "conservation"
                   for i in validate_run(result))


class TestAcrossDeviceVariants:
    def test_sleep_enabled_disk_validates(self):
        from repro.devices.specs import HITACHI_DK23DA
        spec = HITACHI_DK23DA.with_sleep(30.0)
        result = run(mixed_trace(), DiskOnlyPolicy(), disk_spec=spec)
        issues = validate_run(result, disk_spec=spec)
        assert issues == [], [str(i) for i in issues]

    def test_adaptive_dpm_validates(self):
        from repro.devices.dpm import AdaptiveTimeout
        result = run(mixed_trace(), DiskOnlyPolicy(),
                     spindown_policy=AdaptiveTimeout(initial=20.0))
        issues = validate_run(result)
        assert issues == [], [str(i) for i in issues]

    def test_psm_transfer_wnic_validates(self):
        from repro.devices.specs import AIRONET_350
        spec = AIRONET_350.with_psm_transfers()
        result = run(mixed_trace(), WnicOnlyPolicy(), wnic_spec=spec)
        issues = validate_run(result, wnic_spec=spec)
        assert issues == [], [str(i) for i in issues]
