"""Unit tests for the BlueFS-style reactive policy."""

import pytest

from repro.core.bluefs import BlueFSConfig, BlueFSPolicy
from repro.core.decision import DataSource
from repro.core.policies import RequestContext
from repro.core.session import SimulationSession
from repro.core.system import MobileSystem
from repro.core.workload import ProgramSpec
from repro.devices.disk import DiskState
from repro.sim.clock import MB
from repro.traces.record import OpType


def ctx(now=0.0, nbytes=4096, op=OpType.READ):
    return RequestContext(now=now, program="p", profiled=True,
                          disk_pinned=False, inode=1, offset=0,
                          nbytes=nbytes, op=op)


def attached_policy(config=None):
    policy = BlueFSPolicy(config)
    env = MobileSystem()
    env.vfs.register_file(1, 100 * MB)
    env.layout.add_file(1, 100 * MB)
    policy.attach(env)
    policy.begin_run(0.0)
    return policy, env


class TestConfig:
    def test_defaults(self):
        cfg = BlueFSConfig()
        assert cfg.cost_metric == "time"
        assert cfg.hints_keep_disk_alive

    def test_validation(self):
        with pytest.raises(ValueError):
            BlueFSConfig(hint_threshold_factor=0.0)
        with pytest.raises(ValueError):
            BlueFSConfig(cost_metric="vibes")


class TestMyopicChoice:
    def test_standby_disk_sends_small_requests_to_network(self):
        policy, env = attached_policy()
        assert env.disk.state == DiskState.STANDBY.value
        assert policy.choose(ctx()) is DataSource.NETWORK

    def test_spinning_disk_wins_large_requests(self):
        policy, env = attached_policy()
        env.disk.force_spinup(0.0)
        env.wnic.advance_to(2.0)
        # 128 KB: disk ~24 ms vs network ~94 ms transfer.
        assert policy.choose(ctx(now=2.0, nbytes=128 * 1024)) \
            is DataSource.DISK

    def test_spinning_disk_loses_tiny_requests_when_wnic_awake(self):
        policy, env = attached_policy()
        env.disk.force_spinup(0.0)
        env.wnic.service(2.0, 1024)          # wakes the card
        # 4 KB: network 1 ms latency + 3 ms beats a 20 ms seek.
        assert policy.choose(ctx(now=2.1, nbytes=4096)) \
            is DataSource.NETWORK

    def test_dozing_wnic_penalised_by_wakeup(self):
        policy, env = attached_policy()
        env.disk.force_spinup(0.0)
        # WNIC in PSM: 0.4 s wake-up dwarfs the disk seek.
        assert policy.choose(ctx(now=5.0, nbytes=4096)) is DataSource.DISK

    def test_energy_metric_variant(self):
        policy, env = attached_policy(BlueFSConfig(cost_metric="energy"))
        env.disk.force_spinup(0.0)
        env.wnic.service(2.0, 1024)
        # Energy-greedy: an awake WNIC moving 4 KB costs ~0.01 J vs the
        # seek's 0.04 J.
        assert policy.choose(ctx(now=2.1, nbytes=4096)) \
            is DataSource.NETWORK


class TestGhostHints:
    def test_hints_accumulate_and_spin_up(self):
        policy, env = attached_policy(
            BlueFSConfig(hint_threshold_factor=0.3))
        investment = (5.0 + 2.94) * 0.3

        class R:
            energy = 2.0
            arrival = 0.0
            completion = 0.1

        n = 0
        while env.disk.state == DiskState.STANDBY.value and n < 50:
            policy.on_serviced(ctx(nbytes=1 * MB), DataSource.NETWORK, R())
            n += 1
        assert env.disk.state == DiskState.IDLE.value
        assert policy.ghost_spinups == 1
        assert policy.ghost_hint_energy == 0.0
        # It took about investment / (2.0 - active-disk cost) requests.
        assert 1 <= n <= investment / 1.0 + 2

    def test_disk_service_discharges_hints(self):
        policy, env = attached_policy()
        policy.ghost_hint_energy = 1.0

        class R:
            energy = 0.6
        policy.on_serviced(ctx(), DataSource.DISK, R())
        assert policy.ghost_hint_energy == pytest.approx(0.4)

    def test_spindown_resets_hints(self):
        policy, env = attached_policy()
        policy.ghost_hint_energy = 1.5
        env.disk.force_spinup(0.0)
        env.disk.advance_to(60.0)            # times out and spins down
        policy.on_tick(60.0)
        assert policy.ghost_hint_energy == 0.0

    def test_keep_alive_refreshes_disk_timer(self):
        policy, env = attached_policy()
        env.disk.force_spinup(0.0)
        before = env.disk.last_activity

        class R:
            energy = 2.0
        policy.on_serviced(ctx(now=10.0, nbytes=1 * MB),
                           DataSource.NETWORK, R())
        assert env.disk.last_activity >= 10.0 > before


class TestEndToEnd:
    def test_bluefs_beats_worst_fixed_policy(self, sparse_trace):
        from repro.core.policies import DiskOnlyPolicy
        bluefs = SimulationSession([ProgramSpec(sparse_trace)],
                                   BlueFSPolicy(), seed=1).run()
        disk = SimulationSession([ProgramSpec(sparse_trace)],
                                 DiskOnlyPolicy(), seed=1).run()
        # Sparse 30 s-gap workload: reactive selection must not be
        # dramatically worse than the pure-disk baseline.
        assert bluefs.total_energy < disk.total_energy * 1.3

    def test_decision_log_populated(self, tiny_trace):
        policy = BlueFSPolicy()
        SimulationSession([ProgramSpec(tiny_trace)], policy, seed=1).run()
        assert policy.decision_log
