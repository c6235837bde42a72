"""Unit tests for the content-addressed run cache."""

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.experiments.cache import (
    RunCache,
    RunCacheCorruptionWarning,
    UncacheableFactoryError,
    policy_token,
    run_key,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet, run_point
from repro.faults.schedule import FaultSchedule, FaultSpec
from tests.conftest import make_trace


def small_trace(name="cached"):
    calls = [(1, i * 65536, 65536, "read", i * 2.0) for i in range(6)]
    return make_trace(calls, name=name, file_sizes={1: 6 * 65536})


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010),
                            bandwidth_sweep_bps=(11e6 / 8,))


@pytest.fixture
def programs():
    return (ProgramSpec(small_trace()).prepared(),)


class TestRunKey:
    def test_stable_across_equal_inputs(self, config, programs):
        # A different Trace object with equal content compiles to the
        # same digest, hence the same key.
        rebuilt = (ProgramSpec(small_trace()).prepared(),)
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       config) == \
            run_key(rebuilt, DiskOnlyPolicy, config.wnic_spec, config)

    @pytest.mark.parametrize("perturb", [
        lambda c: replace(c, seed=8),
        lambda c: replace(c, memory_bytes=c.memory_bytes // 2),
        lambda c: replace(c, disk_spec=replace(
            c.disk_spec, idle_power=c.disk_spec.idle_power + 1e-12)),
    ])
    def test_config_perturbations_change_key(self, config, programs,
                                             perturb):
        base = run_key(programs, DiskOnlyPolicy, config.wnic_spec, config)
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       perturb(config)) != base

    def test_wnic_spec_changes_key(self, config, programs):
        base = run_key(programs, DiskOnlyPolicy, config.wnic_spec, config)
        slower = replace(config.wnic_spec,
                         latency=config.wnic_spec.latency + 0.019)
        assert run_key(programs, DiskOnlyPolicy, slower, config) != base

    def test_policy_changes_key(self, config, programs):
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       config) != \
            run_key(programs, WnicOnlyPolicy, config.wnic_spec, config)

    def test_trace_contents_change_key(self, config, programs):
        other = (ProgramSpec(make_trace(
            [(1, 0, 65536, "read", 0.0)], name="cached",
            file_sizes={1: 65536})).prepared(),)
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       config) != \
            run_key(other, DiskOnlyPolicy, config.wnic_spec, config)

    def test_salt_changes_key(self, config, programs):
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       config, salt="v1") != \
            run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                    config, salt="v2")

    def test_fault_spec_changes_key(self, config, programs):
        """Regression: a --faults run must never hit a no-fault row."""
        base = run_key(programs, DiskOnlyPolicy, config.wnic_spec, config)
        spec = FaultSpec(outage_rate=0.01)
        faulted = run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                          config, faults=spec)
        assert faulted != base
        other = run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                        config, faults=FaultSpec(outage_rate=0.02))
        assert other not in (base, faulted)

    def test_fault_schedule_keys_on_spec_and_seed(self, config, programs):
        spec = FaultSpec(outage_rate=0.01)
        as_schedule = run_key(
            programs, DiskOnlyPolicy, config.wnic_spec, config,
            faults=FaultSchedule(spec, seed=config.seed))
        rebuilt = run_key(
            programs, DiskOnlyPolicy, config.wnic_spec, config,
            faults=FaultSchedule(spec, seed=config.seed))
        assert as_schedule == rebuilt
        reseeded = run_key(
            programs, DiskOnlyPolicy, config.wnic_spec, config,
            faults=FaultSchedule(spec, seed=config.seed + 1))
        assert reseeded != as_schedule

    def test_spindown_changes_key(self, config, programs):
        base = run_key(programs, DiskOnlyPolicy, config.wnic_spec, config)
        assert run_key(programs, DiskOnlyPolicy, config.wnic_spec,
                       config, spindown={"timeout": 2.0}) != base

    def test_unpicklable_closure_factory_rejected(self, config, programs):
        with pytest.raises(UncacheableFactoryError):
            run_key(programs, lambda: DiskOnlyPolicy(),
                    config.wnic_spec, config)

    def test_policy_token_of_class(self):
        assert policy_token(DiskOnlyPolicy) == {
            "__policy_class__": "DiskOnlyPolicy"}


class TestRunCache:
    def _point(self, config, programs):
        return run_point(ProgramSet(programs), DiskOnlyPolicy,
                         config.wnic_spec, config)

    def test_miss_then_hit_round_trip(self, tmp_path, config, programs):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        assert cache.get(key) is None
        point = self._point(config, programs)
        cache.put(key, point.result)
        cached = cache.get(key)
        assert cached == point.result
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_salt_invalidates_previous_entries(self, tmp_path, config,
                                               programs):
        old = RunCache(tmp_path, salt="code-v1")
        point = self._point(config, programs)
        old.put(old.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config), point.result)
        new = RunCache(tmp_path, salt="code-v2")
        assert new.get(new.key_for(programs, DiskOnlyPolicy,
                                   config.wnic_spec, config)) is None

    @pytest.mark.parametrize("payload", [
        "not json {",
        "{}",
        '{"result": {"policy": "Disk-only"}}',
        '{"result": null}',
    ])
    def test_corrupted_entry_is_a_miss(self, tmp_path, config, programs,
                                       payload):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text(payload, encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_corrupted_entry_falls_back_to_live_run(self, tmp_path,
                                                    config, programs):
        """A trashed cache file must not poison a sweep."""
        cache = RunCache(tmp_path)
        executor = ParallelSweepExecutor(1, cache=cache)
        curves = executor.run_sweep(
            ProgramSet(programs), {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        cache.path_for(key).write_text("garbage", encoding="utf-8")
        again = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        repaired = again.run_sweep(
            ProgramSet(programs), {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        assert again.live_runs == 1 and again.cache_hits == 0
        assert repaired == curves
        # The live run re-wrote the entry; a third pass hits it.
        third = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        assert third.run_sweep(
            ProgramSet(programs), {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config) == curves
        assert third.live_runs == 0 and third.cache_hits == 1

    def test_faulted_sweep_never_hits_unfaulted_rows(self, tmp_path,
                                                     config, programs):
        """The stale-cache bug, end to end: warm a fault-free cache,
        then run the same cell with faults — it must simulate live."""
        warm = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        warm.run_sweep(ProgramSet(programs),
                       {"Disk-only": DiskOnlyPolicy},
                       [config.wnic_spec], config)
        faulted = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        faulted.run_sweep(ProgramSet(programs),
                          {"Disk-only": DiskOnlyPolicy},
                          [config.wnic_spec], config,
                          faults=FaultSpec(outage_rate=0.05,
                                           outage_mean=5.0))
        assert (faulted.cache_hits, faulted.live_runs) == (0, 1)

    def test_put_tmp_names_are_unique_per_call(self, tmp_path, config,
                                               programs, monkeypatch):
        """Regression: ``put`` once used a fixed ``<key>.tmp`` name, so
        two sweeps sharing a cache dir could interleave bytes into the
        same tmp file before the atomic replace."""
        seen: list[str] = []
        real_replace = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        result = self._point(config, programs).result
        cache.put(key, result)
        cache.put(key, result)
        assert len(set(seen)) == 2          # never the same tmp path
        assert all(f".{os.getpid()}." in name for name in seen)

    def test_put_leaves_no_tmp_files(self, tmp_path, config, programs):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        cache.put(key, self._point(config, programs).result)
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.get(key) is not None

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_result_is_never_stored(self, tmp_path, config,
                                               programs, value):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        bad = replace(self._point(config, programs).result, end_time=value)
        with pytest.raises(ValueError):
            cache.put(key, bad)
        assert cache.stores == 0
        assert list(tmp_path.iterdir()) == []     # no row, no .tmp
        assert cache.get(key) is None

    def test_corrupt_rows_counted_and_warned_once(self, tmp_path, config,
                                                  programs):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_text("garbage", encoding="utf-8")
        with pytest.warns(RunCacheCorruptionWarning):
            assert cache.get(key) is None
        assert cache.corrupt_rows == 1
        # Subsequent corrupt reads count but do not warn again.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            assert cache.get(key) is None
        assert cache.corrupt_rows == 2
        assert not any(issubclass(w.category, RunCacheCorruptionWarning)
                       for w in caught)

    def test_missing_entry_is_not_a_corrupt_row(self, tmp_path, config,
                                                programs):
        cache = RunCache(tmp_path)
        key = cache.key_for(programs, DiskOnlyPolicy, config.wnic_spec,
                            config)
        assert cache.get(key) is None
        assert cache.corrupt_rows == 0

    def test_cached_result_is_bit_identical(self, tmp_path, config,
                                            programs):
        cache = RunCache(tmp_path)
        executor = ParallelSweepExecutor(1, cache=cache)
        live = executor.run_sweep(
            ProgramSet(programs), {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        warm = ParallelSweepExecutor(1, cache=RunCache(tmp_path))
        cached = warm.run_sweep(
            ProgramSet(programs), {"Disk-only": DiskOnlyPolicy},
            [config.wnic_spec], config)
        (a,), (b,) = live["Disk-only"], cached["Disk-only"]
        assert a.result == b.result
        assert a.energy == b.energy          # exact, not approx
        assert a.result.end_time == b.result.end_time


class TestUncompiledTraces:
    """Since salt v3 the cache keys on compiled digests only."""

    def test_record_level_trace_raises_typed_error(self, config):
        from repro.experiments.cache import UncompiledTraceError
        raw = (ProgramSpec(small_trace()),)
        with pytest.raises(UncompiledTraceError,
                           match="compile it first"):
            run_key(raw, DiskOnlyPolicy, config.wnic_spec, config)

    def test_key_for_raises_the_same_error(self, tmp_path, config):
        from repro.experiments.cache import UncompiledTraceError
        cache = RunCache(tmp_path)
        with pytest.raises(UncompiledTraceError):
            cache.key_for((ProgramSpec(small_trace()),), DiskOnlyPolicy,
                          config.wnic_spec, config)

    def test_error_is_a_type_error(self):
        from repro.experiments.cache import UncompiledTraceError
        assert issubclass(UncompiledTraceError, TypeError)

    def test_prepared_and_freshly_compiled_key_identically(self, config):
        from repro.traces.compile import compile_trace
        via_spec = (ProgramSpec(small_trace()).prepared(),)
        via_compile = (ProgramSpec(compile_trace(small_trace())),)
        assert run_key(via_spec, DiskOnlyPolicy, config.wnic_spec,
                       config) == \
            run_key(via_compile, DiskOnlyPolicy, config.wnic_spec,
                    config)


class TestPayloadDigest:
    def test_stable_for_equal_profiles(self):
        from repro.core.profile import profile_from_trace
        from repro.experiments.cache import payload_digest
        a = payload_digest(profile_from_trace(small_trace()))
        b = payload_digest(profile_from_trace(small_trace()))
        assert a == b
        assert len(a) == 64

    def test_differs_for_different_profiles(self):
        from repro.core.profile import profile_from_trace
        from repro.experiments.cache import payload_digest
        other = make_trace([(1, 0, 65536, "read", 0.0)],
                           name="cached", file_sizes={1: 65536})
        assert payload_digest(profile_from_trace(small_trace())) != \
            payload_digest(profile_from_trace(other))

    def test_prepared_factory_keys_like_unprepared(self, config):
        """Shipping a factory by digest must not change cache keys."""
        from repro.core.profile import profile_from_trace
        from repro.experiments.cache import policy_token
        from repro.experiments.figures import FlexFetchFactory
        from repro.experiments.parallel import _prepare_factory
        factory = FlexFetchFactory(
            profile=profile_from_trace(small_trace()),
            loss_rate=0.25, stage_length=40.0)
        assert policy_token(_prepare_factory(factory)) == \
            policy_token(factory)
