"""Tests for the crash-consistent sweep journal.

Unit tests cover the record round-trip and the torn-tail/garbage
classification; the property-based test proves the headline guarantee —
a sweep resumed from *any byte prefix* of its journal reproduces the
serial grid bit-identically.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.workload import ProgramSpec
from repro.core.telemetry import RunResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.journal import (
    JOURNAL_VERSION,
    JournalError,
    SweepJournal,
    load_journal,
    sweep_id,
)
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.runner import ProgramSet
from tests.conftest import make_trace


def small_trace():
    calls = [(1, i * 65536, 65536, "read", i * 1.5) for i in range(8)]
    return make_trace(calls, name="jnl", file_sizes={1: 8 * 65536})


def sample_result(policy="Disk-only", end_time=12.5):
    return RunResult(policy=policy, end_time=end_time,
                     foreground_time=0.1 + 0.2,   # not repr-trivial
                     disk_energy=3.25, wnic_energy=1.75, requests=8,
                     device_requests={"disk": 8}, device_bytes={"disk": 64},
                     cache_hit_ratio=0.5, disk_spinups=1,
                     disk_spindowns=1, wnic_wakeups=2)


@pytest.fixture
def config():
    return ExperimentConfig(seed=3,
                            latency_sweep=(0.0, 0.010),
                            bandwidth_sweep_bps=(11e6 / 8,))


@pytest.fixture
def programs():
    return ProgramSet((ProgramSpec(small_trace()),))


def factories():
    return {"Disk-only": DiskOnlyPolicy, "WNIC-only": WnicOnlyPolicy}


class TestRecordRoundTrip:
    def test_finish_round_trips_bit_identically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        result = sample_result()
        with SweepJournal(path) as journal:
            journal.begin_sweep(["k1"], salt="s")
            journal.record_start(0, "k1", 1)
            journal.record_finish(0, "k1", result)
            journal.end_sweep(completed=1, failed=0)
        replay = load_journal(path)
        assert replay.completed == {"k1": result}
        assert replay.completed["k1"].foreground_time == 0.1 + 0.2
        assert replay.started == 1
        assert not replay.torn_tail
        assert len(replay.sweeps) == 1
        assert replay.sweeps[0]["version"] == JOURNAL_VERSION

    def test_fail_record_round_trips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        attempts = [{"attempt": 1, "reason": "exception",
                     "error": "ValueError('x')", "traceback": "tb",
                     "delay": 0.0}]
        with SweepJournal(path) as journal:
            journal.record_fail(0, "k1", attempts)
        assert load_journal(path).failed == {"k1": attempts}

    def test_finish_supersedes_fail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        result = sample_result()
        with SweepJournal(path) as journal:
            journal.record_fail(0, "k1", [])
            journal.record_finish(0, "k1", result)
        replay = load_journal(path)
        assert replay.completed == {"k1": result}
        assert replay.failed == {}

    def test_non_finite_result_is_never_journaled(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = sample_result()
        with SweepJournal(path) as journal:
            journal.record_finish(0, "k1", good)
            with pytest.raises(ValueError):
                journal.record_finish(
                    1, "k2", sample_result(end_time=float("nan")))
            assert "k2" not in journal.replay.completed
        replay = load_journal(path)
        assert replay.completed == {"k1": good}
        assert not replay.torn_tail

    def test_append_after_close_raises(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(JournalError):
            journal.record_start(0, "k", 1)

    def test_sweep_id_is_order_independent(self):
        assert sweep_id(["a", "b"]) == sweep_id(["b", "a"])
        assert sweep_id(["a"]) != sweep_id(["b"])


class TestTornTailAndGarbage:
    def _intact(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path) as journal:
            journal.begin_sweep(["k1", "k2"], salt="s")
            journal.record_finish(0, "k1", sample_result())
        return path

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = self._intact(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"kind": "finish", "key": "k2"')
        replay = load_journal(path)
        assert replay.torn_tail
        assert set(replay.completed) == {"k1"}
        assert replay.intact_bytes == len(intact)

    def test_resume_repairs_torn_tail(self, tmp_path):
        path = self._intact(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"kind": "fin')
        with SweepJournal(path) as journal:
            journal.record_finish(1, "k2", sample_result("WNIC-only"))
        replay = load_journal(path)
        assert not replay.torn_tail
        assert set(replay.completed) == {"k1", "k2"}

    def test_mid_file_garbage_raises(self, tmp_path):
        path = self._intact(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"not json\n" + b"".join(lines[1:]))
        with pytest.raises(JournalError):
            load_journal(path)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(json.dumps({"kind": "wat"}).encode() + b"\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {"kind": "begin", "version": JOURNAL_VERSION + 1}
        path.write_bytes(json.dumps(record).encode() + b"\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_malformed_finish_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = {"kind": "finish", "key": "k", "result": {"policy": "x"}}
        path.write_bytes(json.dumps(record).encode() + b"\n")
        with pytest.raises(JournalError):
            load_journal(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError):
            load_journal(tmp_path / "absent.jsonl")


class TestJournaledSweep:
    def test_resume_skips_completed_cells(self, tmp_path, config,
                                          programs):
        path = tmp_path / "sweep.jsonl"
        specs = config.latency_points()
        first = ParallelSweepExecutor(1, journal=SweepJournal(path))
        golden = first.run_sweep(programs, factories(), specs, config)
        first.journal.close()
        assert first.live_runs == len(factories()) * len(specs)

        resumed = ParallelSweepExecutor(1, journal=SweepJournal(path))
        again = resumed.run_sweep(programs, factories(), specs, config)
        resumed.journal.close()
        assert again == golden
        assert resumed.live_runs == 0
        assert resumed.journal_hits == len(factories()) * len(specs)

    def test_journal_and_cache_agree(self, tmp_path, config, programs):
        """Journaled grids equal plain serial grids bit-identically."""
        path = tmp_path / "sweep.jsonl"
        specs = config.latency_points()
        golden = ParallelSweepExecutor(1).run_sweep(
            programs, factories(), specs, config)
        journaled = ParallelSweepExecutor(1, journal=SweepJournal(path))
        got = journaled.run_sweep(programs, factories(), specs, config)
        journaled.journal.close()
        assert got == golden


class TestPrefixResumeProperty:
    """Any byte prefix of a journal resumes to a bit-identical grid."""

    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        config = ExperimentConfig(seed=3,
                                  latency_sweep=(0.0, 0.010),
                                  bandwidth_sweep_bps=(11e6 / 8,))
        programs = ProgramSet((ProgramSpec(small_trace()),))
        specs = config.latency_points()
        path = tmp_path_factory.mktemp("journal") / "full.jsonl"
        executor = ParallelSweepExecutor(1, journal=SweepJournal(path))
        golden = executor.run_sweep(programs, factories(), specs, config)
        executor.journal.close()
        return path.read_bytes(), golden, programs, specs, config

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_prefix_resumes_bit_identically(self, baseline, tmp_path,
                                                data):
        raw, golden, programs, specs, config = baseline
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        path = tmp_path / f"prefix-{cut}.jsonl"
        path.write_bytes(raw[:cut])
        survived = len(load_journal(path).completed)
        executor = ParallelSweepExecutor(1, journal=SweepJournal(path))
        got = executor.run_sweep(programs, factories(), specs, config)
        executor.journal.close()
        assert got == golden
        total = len(factories()) * len(specs)
        # Cells that survived the cut were not re-run; the rest were.
        assert executor.journal_hits == survived
        assert executor.live_runs == total - survived
