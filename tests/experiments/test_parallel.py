"""Determinism and failure-path tests for the parallel sweep executor."""

from dataclasses import replace

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.experiments.cache import RunCache
from repro.experiments.config import (
    FIXED_BANDWIDTH_BPS,
    FIXED_LATENCY,
    ExperimentConfig,
)
from repro.experiments.figures import FlexFetchFactory
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    ProgramRef,
    SweepCellError,
    SweepJob,
    _execute_job,
    enable_profiling,
    merged_profile_stats,
    stage_payload,
)
from repro.experiments.runner import ProgramSet, run_sweep
from tests.conftest import make_trace


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 1.5) for i in range(8)]
    return make_trace(calls, name="par", file_sizes={1: 8 * 65536})


class BoomFactory:
    """Module-level (hence picklable) policy factory that always fails."""

    def __call__(self):
        raise RuntimeError("boom in worker")


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010),
                            bandwidth_sweep_bps=(11e6 / 8,))


@pytest.fixture
def programs():
    return ProgramSet((ProgramSpec(small_trace()),))


def policies(trace):
    profile = profile_from_trace(trace)
    return {
        "Disk-only": DiskOnlyPolicy,
        "WNIC-only": WnicOnlyPolicy,
        "FlexFetch": FlexFetchFactory(profile=profile, loss_rate=0.25,
                                      stage_length=40.0),
    }


class TestBitIdenticalToSerial:
    def test_workers4_matches_workers1(self, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        serial = ParallelSweepExecutor(1).run_sweep(
            programs, facts, specs, config)
        parallel = ParallelSweepExecutor(4).run_sweep(
            programs, facts, specs, config)
        assert list(serial) == list(parallel)   # curve order
        for name in serial:
            assert len(serial[name]) == len(specs)
            for a, b in zip(serial[name], parallel[name]):
                assert a.latency == b.latency   # sweep order preserved
                assert a.result == b.result     # exact, field by field
                assert a.energy == b.energy
                assert a.time == b.time

    def test_run_sweep_workers_kwarg_delegates(self, config, programs):
        facts = {"Disk-only": DiskOnlyPolicy}
        specs = config.latency_points()
        assert run_sweep(programs, facts, specs, config, workers=2) == \
            run_sweep(programs, facts, specs, config)


class TestProgressMarshalling:
    def test_one_line_per_cell_in_parent(self, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        lines: list[str] = []
        ParallelSweepExecutor(2).run_sweep(
            programs, facts, specs, config, progress=lines.append)
        assert len(lines) == len(facts) * len(specs)
        for name in facts:
            assert sum(name in line for line in lines) == len(specs)


class TestWorkerFailure:
    def test_failed_cell_raises_after_others_complete(self, config,
                                                      programs):
        facts = {"Disk-only": DiskOnlyPolicy,
                 "Boom": BoomFactory(),
                 "WNIC-only": WnicOnlyPolicy}
        executor = ParallelSweepExecutor(2)
        with pytest.raises(SweepCellError) as info:
            executor.run_sweep(programs, facts, config.latency_points(),
                               config)
        assert info.value.curve == "Boom"
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "boom in worker" in str(info.value.__cause__)
        # The healthy cells were not abandoned: 2 policies x 2 points.
        assert executor.live_runs == 4

    def test_serial_path_same_semantics(self, config, programs):
        executor = ParallelSweepExecutor(1)
        with pytest.raises(SweepCellError) as info:
            executor.run_sweep(
                programs, {"Boom": BoomFactory(),
                           "Disk-only": DiskOnlyPolicy},
                [config.wnic_spec], config)
        assert info.value.curve == "Boom"
        assert executor.live_runs == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelSweepExecutor(0)


class TestJobExecution:
    def test_execute_job_matches_direct_run(self, config, programs):
        spec = programs.specs[0].prepared()
        ref = ProgramRef.of(spec)
        stage_payload(ref.digest, spec.trace)
        job = SweepJob(index=0, curve="Disk-only",
                       programs=(ref,),
                       policy_factory=DiskOnlyPolicy,
                       wnic_spec=config.wnic_spec, config=config)
        direct = ParallelSweepExecutor(1).run_sweep(
            programs, {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        assert _execute_job(job).result == direct["Disk-only"][0].result


class TestParallelWithCache:
    def test_parallel_cold_then_warm(self, tmp_path, config, programs):
        facts = policies(programs.specs[0].trace)
        specs = config.latency_points()
        cold = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        first = cold.run_sweep(programs, facts, specs, config)
        assert cold.live_runs == len(facts) * len(specs)
        assert cold.cache_hits == 0
        warm = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        second = warm.run_sweep(programs, facts, specs, config)
        assert warm.live_runs == 0
        assert warm.cache_hits == len(facts) * len(specs)
        assert second == first

    def test_mixed_hit_miss_grid(self, tmp_path, config, programs):
        """A grid partially covered by the cache fills in the holes."""
        specs = config.latency_points()
        half = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        half.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                       [specs[0]], config)
        mixed = ParallelSweepExecutor(2, cache=RunCache(tmp_path))
        curves = mixed.run_sweep(programs,
                                 {"Disk-only": DiskOnlyPolicy}, specs,
                                 config)
        assert mixed.cache_hits == 1
        assert mixed.live_runs == len(specs) - 1
        assert [p.latency for p in curves["Disk-only"]] == \
            [s.latency for s in specs]


class TestJobPayloadSize:
    """SweepJob pickles must not scale with trace length."""

    BYTE_BUDGET = 4096

    def _job_bytes(self, trace, config):
        import pickle

        from repro.core.profile import profile_from_trace
        from repro.experiments.figures import FlexFetchFactory
        from repro.experiments.parallel import _prepare_factory
        spec = ProgramSpec(trace).prepared()
        ref = ProgramRef.of(spec)
        stage_payload(ref.digest, spec.trace)
        factory = _prepare_factory(FlexFetchFactory(
            profile=profile_from_trace(trace), loss_rate=0.25,
            stage_length=40.0))
        job = SweepJob(index=0, curve="FlexFetch", programs=(ref,),
                       policy_factory=factory,
                       wnic_spec=config.wnic_spec, config=config)
        return len(pickle.dumps(job))

    def test_fig3_cell_job_stays_under_byte_budget(self, config):
        from repro.traces.synth import generate_thunderbird
        size = self._job_bytes(generate_thunderbird(config.seed), config)
        assert size < self.BYTE_BUDGET, \
            f"fig3 SweepJob pickles to {size} B (> {self.BYTE_BUDGET})"

    def test_job_size_independent_of_trace_length(self, config):
        from repro.traces.synth import generate_thunderbird
        tiny = self._job_bytes(small_trace(), config)
        big = self._job_bytes(generate_thunderbird(config.seed), config)
        # 2908 records vs 8 — the pickles differ only in digest noise.
        assert abs(big - tiny) < 128, (tiny, big)


class TestWorkerClamp:
    """workers > pending cells must not spawn idle processes."""

    def test_pool_clamped_to_pending_cells(self, config, programs):
        lines = []
        executor = ParallelSweepExecutor(8)
        specs = config.latency_points()          # 2 points x 1 policy
        executor.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                           specs, config, progress=lines.append)
        assert any("clamped 8 -> 2" in line for line in lines)

    def test_single_pending_cell_falls_back_to_serial(self, config,
                                                      programs):
        lines = []
        executor = ParallelSweepExecutor(4)
        executor.run_sweep(programs, {"Disk-only": DiskOnlyPolicy},
                           [config.wnic_spec], config,
                           progress=lines.append)
        assert any("running serially" in line for line in lines)
        assert executor.live_runs == 1

    def test_clamped_run_is_bit_identical_to_serial(self, config,
                                                    programs):
        facts = policies(programs.specs[0].trace)
        serial = ParallelSweepExecutor(1).run_sweep(
            programs, facts, [config.wnic_spec], config)
        clamped = ParallelSweepExecutor(16).run_sweep(
            programs, facts, [config.wnic_spec], config)
        assert clamped == serial


class TestProfiling:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_merged_profile_counts_every_live_cell(self, tmp_path,
                                                   programs, workers):
        """Two panels through one executor, as ``sweep --panel ab
        --profile`` runs them: sweep indices restart per panel, and the
        cache is off so the link point both panels share runs live
        twice.  Every live cell's ``run_point`` is in the merge."""
        config = ExperimentConfig(
            seed=3, latency_sweep=(FIXED_LATENCY, 0.010),
            bandwidth_sweep_bps=(FIXED_BANDWIDTH_BPS, 2e6 / 8))
        facts = {"Disk-only": DiskOnlyPolicy, "WNIC-only": WnicOnlyPolicy}
        executor = ParallelSweepExecutor(workers)
        enable_profiling(tmp_path)
        try:
            executor.run_sweep(programs, facts, config.latency_points(),
                               config)
            executor.run_sweep(programs, facts, config.bandwidth_points(),
                               config)
        finally:
            enable_profiling(None)
        stats = merged_profile_stats(tmp_path)
        assert stats is not None
        calls = sum(nc for (path, _line, func), (_cc, nc, *_rest)
                    in stats.stats.items()
                    if func == "run_point" and path.endswith("runner.py"))
        assert executor.live_runs == 8
        assert calls == executor.live_runs
