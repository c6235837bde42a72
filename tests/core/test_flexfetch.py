"""Unit tests for the FlexFetch policy (§2)."""

import pytest

from repro.core.decision import DataSource
from repro.core.flexfetch import FlexFetchConfig, FlexFetchPolicy
from repro.core.policies import RequestContext
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.workload import ProgramSpec
from repro.traces.record import OpType
from tests.conftest import make_trace


def dense_trace(nbytes=8 * 1024 * 1024):
    """One big sequential burst — unambiguously disk territory."""
    chunk = 128 * 1024
    calls = [(1, i * chunk, chunk, "read", i * 0.001)
             for i in range(nbytes // chunk)]
    return make_trace(calls, name="dense")


def sparse_small_trace(n=10, gap=15.0):
    """Small reads with WNIC-friendly gaps (doze-able, no disk timeout)."""
    calls = [(1, i * 65536, 65536, "read", i * gap) for i in range(n)]
    return make_trace(calls, name="sparse", file_sizes={1: n * 65536})


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = FlexFetchConfig()
        assert cfg.loss_rate == 0.25
        assert cfg.stage_length == 40.0
        assert cfg.burst_threshold == pytest.approx(0.020)
        assert cfg.adaptive

    def test_static_name(self):
        prof = profile_from_trace(dense_trace())
        assert FlexFetchPolicy(prof).name == "FlexFetch"
        assert FlexFetchPolicy(
            prof, FlexFetchConfig(adaptive=False)).name == "FlexFetch-static"

    def test_feature_gating(self):
        on = FlexFetchConfig(adaptive=True)
        off = FlexFetchConfig(adaptive=False)
        for f in ("splice_reevaluation", "stage_audit", "free_rider"):
            assert on.feature(f)
            assert not off.feature(f)
        # cache filter is estimation, not runtime adaptation
        assert on.feature("cache_filter")
        assert off.feature("cache_filter")
        assert not FlexFetchConfig(use_cache_filter=False).feature(
            "cache_filter")

    def test_validation(self):
        with pytest.raises(ValueError):
            FlexFetchConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            FlexFetchConfig(stage_length=0)
        with pytest.raises(ValueError):
            FlexFetchConfig(switch_hysteresis=-0.1)
        with pytest.raises(ValueError):
            FlexFetchConfig(decision_horizon_stages=0)


class TestInitialDecision:
    def test_dense_profile_chooses_disk(self):
        trace = dense_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        SimulationSession([ProgramSpec(trace)], policy, seed=1).run()
        assert policy.decision_log[0][1] is DataSource.DISK
        assert policy.decision_log[0][2] == "initial"

    def test_sparse_profile_chooses_network(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        SimulationSession([ProgramSpec(trace)], policy, seed=1).run()
        assert policy.decision_log[0][1] is DataSource.NETWORK


class TestEndToEndBehaviour:
    def test_dense_run_mostly_disk(self):
        trace = dense_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        assert result.device_bytes["disk"] > result.device_bytes["network"]

    def test_sparse_run_mostly_network(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        assert result.device_bytes["network"] > result.device_bytes["disk"]

    def test_beats_or_matches_best_fixed_policy(self):
        """With an accurate profile FlexFetch should be within a small
        margin of the better fixed policy on both extremes."""
        from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
        for trace in (dense_trace(), sparse_small_trace()):
            prof = profile_from_trace(trace)
            ff = SimulationSession([ProgramSpec(trace)],
                                   FlexFetchPolicy(prof), seed=1).run()
            disk = SimulationSession([ProgramSpec(trace)],
                                     DiskOnlyPolicy(), seed=1).run()
            wnic = SimulationSession([ProgramSpec(trace)],
                                     WnicOnlyPolicy(), seed=1).run()
            best = min(disk.total_energy, wnic.total_energy)
            assert ff.total_energy <= best * 1.10, trace.name


class TestStageAudit:
    def test_stale_profile_corrected_after_one_stage(self):
        """The §3.3.5 mechanism in miniature: profile says sparse/small
        (network), actual run is dense/large (disk)."""
        stale = profile_from_trace(sparse_small_trace(n=6, gap=25.0))
        mb = 1024 * 1024
        # 2 MB/s stream: saturates the 1.375 MB/s WNIC (CAM pinned,
        # ~2.6 W) while the disk handles it in its sleep (~1.7 W).
        actual = make_trace(
            [(2, i * 2 * mb, 2 * mb, "read", i * 1.0) for i in range(90)],
            name="actual", file_sizes={2: 180 * mb})
        policy = FlexFetchPolicy(stale)
        SimulationSession([ProgramSpec(actual)], policy, seed=1).run()
        assert policy.decision_log[0][1] is DataSource.NETWORK
        # The audit must eventually force the disk.
        assert any(s is DataSource.DISK for _, s, r in policy.decision_log
                   if r == "audit-override")

    def test_static_never_audits(self):
        stale = profile_from_trace(sparse_small_trace(n=6, gap=25.0))
        actual = dense_trace()
        policy = FlexFetchPolicy(stale, FlexFetchConfig(adaptive=False))
        SimulationSession([ProgramSpec(actual)], policy, seed=1).run()
        assert policy.audit_log == []
        assert all(r != "audit-override"
                   for _, _, r in policy.decision_log)


class TestFreeRider:
    def test_external_activity_diverts_to_disk(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        env = MobileSystem()
        env.register_trace(trace)
        policy.attach(env)
        policy.begin_run(0.0)
        policy.current_source = DataSource.NETWORK
        # Background program hits the disk every 5 s (< 20 s timeout).
        policy.on_external_disk_request(10.0)
        policy.on_external_disk_request(15.0)
        choice = policy.choose(RequestContext(
            now=16.0, program="p", profiled=True, disk_pinned=False,
            inode=1, offset=0, nbytes=65536, op=OpType.READ))
        assert choice is DataSource.DISK
        assert policy.free_rides == 1

    def test_stale_external_activity_ignored(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        env = MobileSystem()
        env.register_trace(trace)
        policy.attach(env)
        policy.begin_run(0.0)
        policy.current_source = DataSource.NETWORK
        policy.on_external_disk_request(1.0)
        policy.on_external_disk_request(2.0)
        # 30 s later the disk has spun down again.
        choice = policy.choose(RequestContext(
            now=32.0, program="p", profiled=True, disk_pinned=False,
            inode=1, offset=0, nbytes=65536, op=OpType.READ))
        assert choice is DataSource.NETWORK

    def test_free_rider_disabled_by_config(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(
            profile_from_trace(trace),
            FlexFetchConfig(use_free_rider=False))
        env = MobileSystem()
        env.register_trace(trace)
        policy.attach(env)
        policy.begin_run(0.0)
        policy.current_source = DataSource.NETWORK
        policy.on_external_disk_request(10.0)
        policy.on_external_disk_request(15.0)
        choice = policy.choose(RequestContext(
            now=16.0, program="p", profiled=True, disk_pinned=False,
            inode=1, offset=0, nbytes=65536, op=OpType.READ))
        assert choice is DataSource.NETWORK


class TestSplice:
    def test_boundary_crossing_triggers_reevaluation(self):
        """A profile whose tail is a huge dense burst must flip the
        source as soon as the byte position crosses into it."""
        # Profile: sparse phase then dense phase.
        sparse_calls = [(1, i * 65536, 65536, "read", i * 15.0)
                        for i in range(5)]
        t0 = 5 * 15.0
        dense_calls = [(2, i * 131072, 131072, "read",
                        t0 + i * 0.001) for i in range(256)]
        trace = make_trace(sparse_calls + dense_calls, name="two-phase",
                           file_sizes={1: 5 * 65536, 2: 256 * 131072})
        policy = FlexFetchPolicy(profile_from_trace(trace))
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        sources = [s for _, s, _ in policy.decision_log]
        assert DataSource.NETWORK in sources     # sparse phase
        assert DataSource.DISK in sources        # dense phase
        # The dense phase predominantly went to disk.
        assert result.device_bytes["disk"] > result.device_bytes["network"]


class TestObservation:
    def test_tracker_counts_demand_bytes(self, tiny_trace):
        policy = FlexFetchPolicy(profile_from_trace(tiny_trace))
        SimulationSession([ProgramSpec(tiny_trace)], policy, seed=1).run()
        assert policy.tracker.total_bytes == 3 * 4096

    def test_unprofiled_requests_not_observed(self):
        trace = sparse_small_trace()
        policy = FlexFetchPolicy(profile_from_trace(trace))
        SimulationSession(
            [ProgramSpec(trace, profiled=False, disk_pinned=True)],
            policy, seed=1).run()
        assert policy.tracker.total_bytes == 0
