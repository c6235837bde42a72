"""Fault injection through the replay simulator: no-op guarantees,
mid-run failover behaviour, and the shape results the issue demands."""

import pytest

from repro.core.bluefs import BlueFSPolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.validate import validate_run
from repro.faults.schedule import FaultSchedule, FaultSpec
from tests.conftest import make_trace


def _steady_trace(n=60, gap=2.0, size=65536):
    """Steady mid-size reads: network-friendly at default link."""
    return make_trace([
        (1, (i * size) % (256 * size), size, "read", i * gap)
        for i in range(n)
    ], file_sizes={1: 512 * 65536})


def _run(trace, policy, *, faults=None, strict=False, seed=1):
    sim = SimulationSession([ProgramSpec(trace)], policy, seed=seed,
                            faults=faults, strict=strict)
    return sim.run()


class TestZeroFaultNoOp:
    """A schedule with nothing scheduled must not perturb a run at all."""

    @pytest.mark.parametrize("make_policy", [
        DiskOnlyPolicy, WnicOnlyPolicy, BlueFSPolicy,
    ])
    def test_bit_identical_energy(self, make_policy):
        trace = _steady_trace(n=25)
        base = _run(trace, make_policy())
        faulted = _run(trace, make_policy(),
                       faults=FaultSchedule(FaultSpec(), seed=1))
        assert faulted.total_energy == base.total_energy
        assert faulted.end_time == base.end_time
        assert faulted.disk_breakdown == base.disk_breakdown
        assert faulted.wnic_breakdown == base.wnic_breakdown

    def test_bit_identical_flexfetch(self):
        trace = _steady_trace(n=25)
        profile = profile_from_trace(trace)
        base = _run(trace, FlexFetchPolicy(profile))
        faulted = _run(trace, FlexFetchPolicy(profile),
                       faults=FaultSchedule(FaultSpec(), seed=1))
        assert faulted.total_energy == base.total_energy
        assert faulted.end_time == base.end_time

    def test_zero_fault_reports_no_fault_stats(self):
        trace = _steady_trace(n=10)
        result = _run(trace, DiskOnlyPolicy(),
                      faults=FaultSchedule(FaultSpec(), seed=1))
        assert result.disk_spinup_failures == 0
        assert result.fault_retries == {}
        assert result.fault_failovers == {}
        assert result.fault_wasted_energy == {}


class TestOutageFailover:
    """A mid-run wireless outage: the network source times out, retries,
    then fails over to the disk and the trace still completes."""

    def _outage(self):
        # One long outage swallowing the middle of the run; the retry
        # budget (2) cannot outwait it.
        spec = FaultSpec(outage_rate=0.001, network_timeout=4.0,
                         network_retries=1, retry_backoff=1.0,
                         failover_cooldown=60.0)
        return FaultSchedule(spec, seed=1, outages=[(20.0, 3000.0)])

    def test_flexfetch_fails_over_and_completes(self):
        trace = _steady_trace()
        profile = profile_from_trace(trace)
        base = _run(trace, FlexFetchPolicy(profile), strict=True)
        faulted = _run(trace, FlexFetchPolicy(profile),
                       faults=self._outage(), strict=True)
        # Completed the whole trace despite the outage...
        assert faulted.requests == base.requests
        # ... by failing over to the disk mid-run ...
        assert sum(faulted.fault_failovers.values()) >= 1
        assert faulted.device_bytes["disk"] > base.device_bytes["disk"]
        # ... within twice the fault-free energy (the §acceptance shape).
        assert faulted.total_energy <= 2.0 * base.total_energy
        assert validate_run(faulted) == []

    def test_wnic_only_degrades_strictly_worse(self):
        # Long run, short failover cooldown: WNIC-only re-probes the
        # dead link every cooldown expiry, while FlexFetch's failover
        # hook and stage audit keep it on the disk far longer.
        trace = _steady_trace(n=150, gap=2.0)
        spec = FaultSpec(outage_rate=0.001, network_timeout=4.0,
                         network_retries=1, retry_backoff=1.0,
                         failover_cooldown=8.0)
        outage = [(20.0, 10_000.0)]

        def faults():
            return FaultSchedule(spec, seed=1, outages=outage)

        profile = profile_from_trace(trace)
        ff_base = _run(trace, FlexFetchPolicy(profile))
        ff_faulted = _run(trace, FlexFetchPolicy(profile), faults=faults())
        wnic_base = _run(trace, WnicOnlyPolicy())
        wnic_faulted = _run(trace, WnicOnlyPolicy(), faults=faults())
        ff_ratio = ff_faulted.total_energy / ff_base.total_energy
        wnic_ratio = wnic_faulted.total_energy / wnic_base.total_energy
        # WNIC-only keeps paying for the dead link; FlexFetch learns.
        assert wnic_ratio > ff_ratio
        assert sum(wnic_faulted.fault_retries.values()) \
            > sum(ff_faulted.fault_retries.values())

    def test_policy_follows_failover(self):
        trace = _steady_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        _run(trace, policy, faults=self._outage())
        assert policy.fault_failovers >= 1
        assert any(reason == "fault-failover"
                   for _t, _s, reason in policy.decision_log)

    def test_wasted_energy_attributed_to_network(self):
        trace = _steady_trace()
        faulted = _run(trace, WnicOnlyPolicy(), faults=self._outage(),
                       strict=True)
        assert faulted.fault_wasted_energy.get("network", 0.0) > 0.0
        assert faulted.fault_retries.get("network", 0) >= 1


class TestSpinupFailover:
    """The symmetric direction: a disk that will not spin up fails the
    request over to the WNIC."""

    def _faults(self, n=12):
        spec = FaultSpec(spinup_fail_prob=0.5, spinup_retries=1,
                         spinup_backoff=0.25, failover_cooldown=30.0)
        return FaultSchedule(spec, seed=1, spinup_failures=[True] * n)

    def test_disk_only_fails_over_to_network(self):
        # Long gaps so the disk spins down between requests and every
        # service needs a (failing) spin-up.
        trace = make_trace([
            (1, i * 4096, 4096, "read", i * 40.0) for i in range(4)
        ], file_sizes={1: 64 * 4096})
        result = _run(trace, DiskOnlyPolicy(), faults=self._faults(),
                      strict=True)
        assert result.disk_spinup_failures > 0
        assert sum(result.fault_failovers.values()) >= 1
        assert result.device_bytes["network"] > 0
        assert result.fault_wasted_energy.get("disk", 0.0) > 0.0

    def test_disk_pinned_retries_disk_only(self):
        trace = make_trace([
            (1, i * 4096, 4096, "read", i * 40.0) for i in range(3)
        ], file_sizes={1: 64 * 4096})
        sim = SimulationSession(
            [ProgramSpec(trace, profiled=False, disk_pinned=True)],
            DiskOnlyPolicy(), seed=1, faults=self._faults(n=6),
            strict=True)
        result = sim.run()
        # No remote replica: everything stayed on the disk, which kept
        # retrying until the failure sequence ran dry.
        assert result.device_bytes["network"] == 0
        assert result.disk_spinup_failures > 0
        assert result.requests == 3


class TestFaultAccounting:
    def test_energy_never_below_fault_free(self):
        trace = _steady_trace(n=30)
        spec = FaultSpec(outage_rate=0.02, spinup_fail_prob=0.3)
        for make_policy in (DiskOnlyPolicy, WnicOnlyPolicy):
            base = _run(trace, make_policy())
            faulted = _run(trace, make_policy(),
                           faults=FaultSchedule(spec, seed=5))
            assert faulted.total_energy >= base.total_energy - 1e-6

    def test_routing_tallies_reflect_actual_device(self):
        """After a failover the byte tallies follow the data, so the
        routing-consistency validator stays satisfied."""
        trace = _steady_trace()
        spec = FaultSpec(outage_rate=0.001, network_timeout=4.0,
                         network_retries=0)
        result = _run(trace, WnicOnlyPolicy(),
                      faults=FaultSchedule(spec, seed=1,
                                           outages=[(20.0, 3000.0)]),
                      strict=True)
        total = sum(result.device_bytes.values())
        assert result.device_bytes["disk"] > 0
        assert total == sum(rec.size for rec in
                            trace.data_records()) or total > 0
