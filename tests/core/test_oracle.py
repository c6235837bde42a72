"""Tests for the clairvoyant reference policy."""

import pytest

from repro.core.oracle import ClairvoyantStagePolicy
from repro.core.flexfetch import FlexFetchPolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from tests.conftest import make_trace


def dense():
    calls = [(1, i * 131072, 131072, "read", i * 0.001) for i in range(64)]
    return make_trace(calls, name="dense")


def sparse():
    calls = [(1, i * 65536, 65536, "read", i * 15.0) for i in range(10)]
    return make_trace(calls, name="sparse", file_sizes={1: 10 * 65536})


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClairvoyantStagePolicy(dense(), loss_rate=-0.1)
        with pytest.raises(ValueError):
            ClairvoyantStagePolicy(dense(), stage_length=0)

    def test_name(self):
        assert ClairvoyantStagePolicy(dense()).name == "Clairvoyant"


class TestDecisions:
    def test_dense_goes_disk(self):
        trace = dense()
        policy = ClairvoyantStagePolicy(trace)
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        assert result.device_bytes["disk"] > result.device_bytes["network"]

    def test_sparse_goes_network(self):
        trace = sparse()
        policy = ClairvoyantStagePolicy(trace)
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=1).run()
        assert result.device_bytes["network"] > result.device_bytes["disk"]


class TestOptimality:
    @pytest.mark.parametrize("trace_factory", [dense, sparse])
    def test_at_or_below_best_fixed_policy(self, trace_factory):
        trace = trace_factory()
        oracle = SimulationSession([ProgramSpec(trace)],
                                   ClairvoyantStagePolicy(trace),
                                   seed=1).run()
        disk = SimulationSession([ProgramSpec(trace)], DiskOnlyPolicy(),
                                 seed=1).run()
        wnic = SimulationSession([ProgramSpec(trace)], WnicOnlyPolicy(),
                                 seed=1).run()
        best = min(disk.total_energy, wnic.total_energy)
        assert oracle.total_energy <= best * 1.02

    @pytest.mark.parametrize("trace_factory", [dense, sparse])
    def test_flexfetch_with_accurate_profile_near_oracle(
            self, trace_factory):
        """With a truthful profile FlexFetch should track the oracle
        closely — the residual gap is hysteresis + exploration."""
        trace = trace_factory()
        oracle = SimulationSession([ProgramSpec(trace)],
                                   ClairvoyantStagePolicy(trace),
                                   seed=1).run()
        ff = SimulationSession(
            [ProgramSpec(trace)],
            FlexFetchPolicy(profile_from_trace(trace)), seed=1).run()
        assert ff.total_energy <= oracle.total_energy * 1.15
