"""Unit tests for the sweep runner and the figure builders."""

from dataclasses import replace

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, figure2
from repro.experiments.runner import (
    ProgramSet,
    SweepPoint,
    progress_line,
    run_point,
    run_sweep,
)
from tests.conftest import make_trace


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 2.0) for i in range(8)]
    return make_trace(calls, name="small", file_sizes={1: 8 * 65536})


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010),
                            bandwidth_sweep_bps=(1e6 / 8, 11e6 / 8))


class TestRunPoint:
    def test_returns_sweep_point(self, config):
        trace = small_trace()
        point = run_point(lambda: [ProgramSpec(trace)], DiskOnlyPolicy,
                          config.wnic_spec, config)
        assert isinstance(point, SweepPoint)
        assert point.policy == "Disk-only"
        assert point.energy > 0
        assert point.time > 0
        assert point.latency == config.wnic_spec.latency

    def test_policy_factory_called_fresh(self, config):
        """Two points must not share policy state."""
        trace = small_trace()
        instances = []

        def factory():
            p = DiskOnlyPolicy()
            instances.append(p)
            return p

        run_point(lambda: [ProgramSpec(trace)], factory,
                  config.wnic_spec, config)
        run_point(lambda: [ProgramSpec(trace)], factory,
                  config.wnic_spec, config)
        assert len(instances) == 2
        assert instances[0] is not instances[1]


class TestRunSweep:
    def test_curves_cover_all_points(self, config):
        trace = small_trace()
        curves = run_sweep(lambda: [ProgramSpec(trace)],
                           {"Disk-only": DiskOnlyPolicy,
                            "WNIC-only": WnicOnlyPolicy},
                           config.latency_points(), config)
        assert set(curves) == {"Disk-only", "WNIC-only"}
        for points in curves.values():
            assert len(points) == 2
            assert points[0].latency == 0.0
            assert points[1].latency == pytest.approx(0.010)

    def test_progress_callback(self, config):
        trace = small_trace()
        lines = []
        run_sweep(lambda: [ProgramSpec(trace)],
                  {"Disk-only": DiskOnlyPolicy},
                  config.latency_points(), config,
                  progress=lines.append)
        assert len(lines) == 2
        assert "Disk-only" in lines[0]

    def test_progress_reports_both_bandwidth_units(self, config):
        """``bandwidth_bps`` is bytes/s; the line must say so.

        11 Mbps of 802.11b is 11e6/8 = 1.375e6 bytes/s.  The old format
        printed only ``bw=11.0Mbps`` derived from the byte rate, which
        misread as the field being bits/s — both renderings are now
        emitted, correctly converted.
        """
        trace = small_trace()
        lines = []
        run_sweep(lambda: [ProgramSpec(trace)],
                  {"WNIC-only": WnicOnlyPolicy},
                  [replace(config.wnic_spec, bandwidth_bps=11e6 / 8)],
                  config, progress=lines.append)
        (line,) = lines
        assert "bw=1.4MB/s (11.0Mbps)" in line
        assert "lat=" in line and line.endswith("J")


class TestProgressLine:
    def test_units(self, config):
        trace = small_trace()
        point = run_point(lambda: [ProgramSpec(trace)], DiskOnlyPolicy,
                          replace(config.wnic_spec,
                                  bandwidth_bps=1e6 / 8),
                          config)
        line = progress_line(point)
        assert "bw=0.1MB/s (1.0Mbps)" in line
        assert f"{point.energy:.1f} J" in line


class TestProgramSet:
    def test_calls_hand_out_fresh_lists(self):
        trace = small_trace()
        programs = ProgramSet((ProgramSpec(trace),))
        first, second = programs(), programs()
        assert first == second
        assert first is not second
        assert first[0].trace is trace

    def test_latency_moves_wnic_energy_only(self, config):
        trace = small_trace()
        curves = run_sweep(lambda: [ProgramSpec(trace)],
                           {"Disk-only": DiskOnlyPolicy,
                            "WNIC-only": WnicOnlyPolicy},
                           config.latency_points(), config)
        disk = [p.energy for p in curves["Disk-only"]]
        wnic = [p.energy for p in curves["WNIC-only"]]
        assert disk[0] == pytest.approx(disk[1], rel=1e-6)
        assert wnic[1] > wnic[0]


class TestFigureBuilders:
    def test_registry_is_complete(self):
        assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig4", "fig5"}

    def test_figure2_single_panel(self, config):
        result = figure2(config, panels="b")
        assert result.figure_id == "fig2"
        assert result.by_latency == {}
        assert set(result.by_bandwidth) == {
            "Disk-only", "WNIC-only", "BlueFS", "FlexFetch"}
        series = result.curve_energy("WNIC-only", panel="bandwidth")
        assert len(series) == 2
        assert series[0] > series[1]   # 1 Mbps costs more than 11 Mbps
