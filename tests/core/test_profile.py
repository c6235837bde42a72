"""Unit tests for execution profiles and evaluation stages (§2.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.burst import IOBurst, ProfiledRequest
from repro.core.profile import (
    STAGE_LENGTH_DEFAULT,
    ExecutionProfile,
    profile_from_trace,
)
from repro.traces.record import OpType


def burst(nbytes, start, dur):
    req = ProfiledRequest(inode=1, offset=0, size=nbytes, op=OpType.READ)
    return IOBurst(requests=(req,), start=start, end=start + dur)


def profile(spec):
    """Build from (nbytes, duration, think_after) tuples."""
    bursts = []
    thinks = []
    t = 0.0
    for nbytes, dur, think in spec:
        bursts.append(burst(nbytes, t, dur))
        thinks.append(think)
        t += dur + think
    return ExecutionProfile(bursts, thinks)


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExecutionProfile([burst(1, 0, 1)], [])

    def test_totals(self):
        p = profile([(100, 1.0, 5.0), (200, 2.0, 0.0)])
        assert p.total_bytes == 300
        assert p.total_duration == pytest.approx(8.0)

    def test_empty_profile(self):
        p = ExecutionProfile([], [])
        assert p.total_bytes == 0
        assert len(p) == 0
        assert p.stages() == []


class TestByteIndexing:
    def test_bytes_through(self):
        p = profile([(100, 1, 1), (200, 1, 1), (300, 1, 0)])
        assert p.bytes_through(0) == 100
        assert p.bytes_through(2) == 600
        with pytest.raises(IndexError):
            p.bytes_through(3)

    def test_burst_index_for_bytes(self):
        p = profile([(100, 1, 1), (200, 1, 1), (300, 1, 0)])
        assert p.burst_index_for_bytes(0) == 0
        assert p.burst_index_for_bytes(99) == 0
        assert p.burst_index_for_bytes(100) == 1   # burst 0 consumed
        assert p.burst_index_for_bytes(299) == 1
        assert p.burst_index_for_bytes(300) == 2
        assert p.burst_index_for_bytes(600) == 3   # past the end
        assert p.burst_index_for_bytes(9999) == 3


class TestStages:
    def test_default_stage_length(self):
        assert STAGE_LENGTH_DEFAULT == 40.0

    def test_segmentation_just_exceeds_threshold(self):
        # Bursts of 1 s each followed by 15 s thinks: 16 s per entry,
        # so a stage closes after 3 entries (48 s > 40 s).
        p = profile([(100, 1.0, 15.0)] * 6)
        stages = p.stages(40.0)
        assert [s.burst_count for s in stages] == [3, 3]
        assert stages[0].duration == pytest.approx(48.0)
        assert stages[0].nbytes == 300

    def test_last_stage_takes_remainder(self):
        p = profile([(100, 1.0, 15.0)] * 4)
        stages = p.stages(40.0)
        assert [s.burst_count for s in stages] == [3, 1]

    def test_single_giant_burst_is_one_stage(self):
        p = profile([(10_000, 120.0, 0.0)])
        stages = p.stages(40.0)
        assert len(stages) == 1

    def test_stage_indices_cover_profile(self):
        p = profile([(10, 2.0, 3.0)] * 25)
        stages = p.stages(40.0)
        assert stages[0].first == 0
        assert stages[-1].last == 24
        for a, b in zip(stages, stages[1:], strict=False):
            assert b.first == a.last + 1

    def test_stage_slice(self):
        p = profile([(100, 1.0, 15.0)] * 6)
        stages = p.stages(40.0)
        bursts, thinks = p.stage_slice(stages[1])
        assert len(bursts) == 3
        assert sum(b.nbytes for b in bursts) == 300

    def test_invalid_stage_length_rejected(self):
        with pytest.raises(ValueError):
            profile([(1, 1, 1)]).stages(0.0)


class TestSpliceIsBytePositioning:
    """The §2.3.1 splice never changes the slice a decision replays.

    Splicing replaces the first ``n`` old bursts with the observed ones,
    where ``n = old.burst_index_for_bytes(observed_bytes)``.  Every
    observed burst's cumulative byte count is at most
    ``observed_bytes``, so in the spliced profile that byte count lands
    on the first retained old burst, ``old[n]`` — the burst the old
    profile itself starts from.  FlexFetch therefore slices its recorded
    profile at the demand byte count and never builds the splice;
    :func:`reference_spliced` keeps the construction here as the proof
    obligation.
    """

    @staticmethod
    def reference_spliced(old, observed_bursts, observed_thinks):
        """The assembled profile exactly as §2.3.1 describes it."""
        observed_bytes = sum(b.nbytes for b in observed_bursts)
        n = old.burst_index_for_bytes(observed_bytes)
        return ExecutionProfile(
            list(observed_bursts) + list(old.bursts[n:]),
            list(observed_thinks) + list(old.thinks[n:]))

    def assert_same_slice(self, old, observed, horizon):
        bursts = [b for b, _ in observed]
        thinks = [t for _, t in observed]
        nbytes = sum(b.nbytes for b in bursts)
        spliced = self.reference_spliced(old, bursts, thinks)
        assert (spliced.upcoming_slice(nbytes, horizon)
                == old.upcoming_slice(nbytes, horizon))

    @settings(max_examples=200, deadline=None)
    @given(old=st.lists(st.tuples(st.integers(1, 500),
                                  st.floats(0, 10, allow_nan=False),
                                  st.floats(0, 30, allow_nan=False)),
                        max_size=30),
           observed=st.lists(st.tuples(st.integers(1, 800),
                                       st.floats(0, 10, allow_nan=False),
                                       st.floats(0, 30, allow_nan=False)),
                             max_size=30),
           horizon=st.floats(0, 200, allow_nan=False))
    def test_spliced_slice_equals_old_slice(self, old, observed, horizon):
        self.assert_same_slice(
            profile(old),
            [(burst(n, 0.0, d), t) for n, d, t in observed], horizon)

    def test_observed_bytes_past_whole_profile(self):
        old = profile([(100, 1, 1), (200, 1, 0)])
        observed = [(burst(250, 0, 1.0), 3.0), (burst(250, 4, 1.0), 0.0)]
        self.assert_same_slice(old, observed, 80.0)
        assert old.upcoming_slice(500, 80.0) == ([], [])

    def test_empty_observation(self):
        old = profile([(100, 1, 1), (200, 1, 0)])
        self.assert_same_slice(old, [], 80.0)
        assert old.upcoming_slice(0, 80.0) == (list(old.bursts),
                                               list(old.thinks))


class TestMerge:
    def test_merged_interleaves_by_time(self):
        a = ExecutionProfile([burst(10, 0.0, 1.0), burst(10, 10.0, 1.0)],
                             [9.0, 0.0], name="a")
        b = ExecutionProfile([burst(20, 5.0, 1.0)], [0.0], name="b")
        m = a.merged_with(b)
        assert [bu.start for bu in m.bursts] == [0.0, 5.0, 10.0]
        assert m.thinks[0] == pytest.approx(4.0)   # 5.0 - end(1.0)
        assert m.thinks[1] == pytest.approx(4.0)   # 10.0 - end(6.0)


class TestFromTrace:
    def test_profile_from_trace(self, tiny_trace):
        p = profile_from_trace(tiny_trace)
        assert len(p) == 2                    # 5 s gap splits
        assert p.total_bytes == 3 * 4096
        assert p.name == tiny_trace.name
