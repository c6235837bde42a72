"""Unit and property tests for I/O-burst extraction (§2.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.burst import (
    BURST_THRESHOLD_DEFAULT,
    MERGE_LIMIT_BYTES,
    IOBurst,
    OnlineBurstTracker,
    ProfiledRequest,
    extract_bursts,
)
from repro.traces.record import OpType, SyscallRecord


def rec(inode, offset, size, ts, op=OpType.READ, dur=0.0):
    return SyscallRecord(pid=1, fd=3, inode=inode, offset=offset,
                         size=size, op=op, timestamp=ts, duration=dur)


class TestThreshold:
    def test_default_is_disk_access_time(self):
        assert BURST_THRESHOLD_DEFAULT == pytest.approx(0.020)

    def test_gap_below_threshold_joins_burst(self):
        bursts, thinks = extract_bursts(
            [rec(1, 0, 10, 0.0), rec(1, 10, 10, 0.019)])
        assert len(bursts) == 1
        assert thinks == [0.0]

    def test_gap_at_threshold_splits(self):
        bursts, thinks = extract_bursts(
            [rec(1, 0, 10, 0.0), rec(1, 10, 10, 0.020)])
        assert len(bursts) == 2
        assert thinks[0] == pytest.approx(0.020)

    def test_custom_threshold(self):
        records = [rec(1, 0, 10, 0.0), rec(1, 10, 10, 1.0)]
        bursts, _ = extract_bursts(records, threshold=2.0)
        assert len(bursts) == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            extract_bursts([], threshold=0.0)

    def test_gap_measured_from_call_end(self):
        # A call lasting 0.1 s followed 0.01 s after it RETURNS.
        bursts, _ = extract_bursts(
            [rec(1, 0, 10, 0.0, dur=0.1), rec(1, 10, 10, 0.11)])
        assert len(bursts) == 1


class TestMerging:
    def test_sequential_same_file_merges(self):
        bursts, _ = extract_bursts(
            [rec(1, 0, 100, 0.0), rec(1, 100, 100, 0.001)])
        assert len(bursts[0].requests) == 1
        assert bursts[0].requests[0].size == 200

    def test_merge_capped_at_128kb(self):
        chunk = 48 * 1024
        records = [rec(1, i * chunk, chunk, i * 0.001) for i in range(5)]
        bursts, _ = extract_bursts(records)
        sizes = [r.size for r in bursts[0].requests]
        assert all(s <= MERGE_LIMIT_BYTES for s in sizes)
        assert sum(sizes) == 5 * chunk

    def test_interleaved_files_do_not_merge(self):
        records = [rec(1, 0, 10, 0.0), rec(2, 0, 10, 0.001),
                   rec(1, 10, 10, 0.002)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 3

    def test_reads_and_writes_do_not_merge(self):
        records = [rec(1, 0, 10, 0.0),
                   rec(1, 10, 10, 0.001, op=OpType.WRITE)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 2
        assert bursts[0].read_bytes == 10
        assert bursts[0].write_bytes == 10

    def test_non_contiguous_same_file_does_not_merge(self):
        records = [rec(1, 0, 10, 0.0), rec(1, 100, 10, 0.001)]
        bursts, _ = extract_bursts(records)
        assert len(bursts[0].requests) == 2


class TestEdgeCases:
    def test_empty_input(self):
        assert extract_bursts([]) == ([], [])

    def test_zero_size_calls_skipped(self):
        bursts, _ = extract_bursts([rec(1, 0, 0, 0.0)])
        assert bursts == []

    def test_metadata_calls_skipped(self):
        bursts, _ = extract_bursts([rec(1, 0, 10, 0.0, op=OpType.OPEN)])
        assert bursts == []

    def test_trailing_think_is_zero(self):
        _, thinks = extract_bursts([rec(1, 0, 10, 0.0)])
        assert thinks == [0.0]


class TestIOBurstValidation:
    def test_empty_burst_rejected(self):
        with pytest.raises(ValueError):
            IOBurst(requests=(), start=0.0, end=1.0)

    def test_backwards_burst_rejected(self):
        r = ProfiledRequest(inode=1, offset=0, size=1, op=OpType.READ)
        with pytest.raises(ValueError):
            IOBurst(requests=(r,), start=2.0, end=1.0)

    def test_bad_request_rejected(self):
        with pytest.raises(ValueError):
            ProfiledRequest(inode=1, offset=0, size=0, op=OpType.READ)


def tracker_signals(records, threshold=BURST_THRESHOLD_DEFAULT):
    """Feed ``records`` to a fresh tracker: (tracker, closed signals)."""
    tracker = OnlineBurstTracker(threshold=threshold)
    closed = [tracker.observe(r.size, r.timestamp, r.end_time)
              for r in records]
    return tracker, closed


def assert_matches_extractor(records, threshold=BURST_THRESHOLD_DEFAULT):
    """After every prefix, the tracker's closed-burst count and byte
    total equal what :func:`extract_bursts` builds from that prefix."""
    tracker, closed = tracker_signals(records, threshold)
    for k in range(len(records) + 1):
        bursts, _ = extract_bursts(records[:k], threshold=threshold)
        assert sum(closed[:k]) == max(0, len(bursts) - 1)
    bursts, _ = extract_bursts(records, threshold=threshold)
    assert tracker.total_bytes == sum(b.nbytes for b in bursts)


class TestOnlineTracker:
    def test_matches_offline_extraction(self):
        records = [rec(1, 0, 10, 0.0), rec(1, 10, 10, 0.005),
                   rec(2, 0, 50, 3.0), rec(2, 50, 50, 3.001),
                   rec(1, 100, 10, 9.0)]
        assert_matches_extractor(records)
        _, closed = tracker_signals(records)
        assert closed == [False, False, True, False, True]

    def test_gap_measured_from_latest_call_end(self):
        # The long first call ends at 1.0, after the second one (0.5):
        # the third call's gap is measured from 1.0, as offline.
        records = [rec(1, 0, 10, 0.0, dur=1.0), rec(1, 10, 10, 0.1, dur=0.4),
                   rec(1, 20, 10, 1.01)]
        assert_matches_extractor(records)
        _, closed = tracker_signals(records)
        assert closed == [False, False, False]

    def test_observe_returns_closed_burst(self):
        tracker = OnlineBurstTracker()
        assert tracker.observe(10, 100.0, 100.0) is False  # first call
        assert tracker.observe(10, 200.0, 200.0) is True

    def test_open_burst_bytes_count_before_it_closes(self):
        # The position FlexFetch slices at includes the burst still in
        # progress, as the assembled profile's observed prefix did.
        tracker = OnlineBurstTracker()
        assert tracker.observe(10, 0.0, 0.0) is False
        assert tracker.observe(5, 0.001, 0.002) is False
        assert tracker.total_bytes == 15

    def test_total_bytes(self):
        tracker = OnlineBurstTracker()
        tracker.observe(10, 0.0, 0.0)
        tracker.observe(30, 5.0, 5.0)
        assert tracker.total_bytes == 40

    def test_zero_size_ignored(self):
        tracker = OnlineBurstTracker()
        assert tracker.observe(0, 0.0, 0.0) is False
        assert tracker.observe(0, 5.0, 5.0) is False
        assert tracker.total_bytes == 0

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            OnlineBurstTracker(threshold=0.0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5000),
                              st.floats(0, 0.05, allow_nan=False),
                              st.floats(0, 0.05, allow_nan=False)),
                    max_size=40),
           st.sampled_from([0.005, BURST_THRESHOLD_DEFAULT, 0.04]))
    def test_property_matches_extractor(self, raw, threshold):
        ts = 0.0
        records = []
        for size, gap, dur in raw:
            ts += gap
            records.append(rec(1, 0, size, ts, dur=dur))
        assert_matches_extractor(records, threshold)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10_000),
                              st.integers(1, 200_000),
                              st.floats(0, 5, allow_nan=False)),
                    max_size=60))
    def test_bytes_conserved(self, raw):
        ts = 0.0
        records = []
        for inode, offset, size, gap in raw:
            ts += gap
            records.append(rec(inode, offset, size, ts))
        bursts, thinks = extract_bursts(records)
        assert sum(b.nbytes for b in bursts) == sum(r.size for r in records)
        assert len(bursts) == len(thinks)
        # All intra-burst merges respect the 128 KB cap... unless a
        # single syscall already exceeded it.
        for b in bursts:
            for req in b.requests:
                assert req.size <= max(MERGE_LIMIT_BYTES, 200_000)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 2, allow_nan=False), min_size=1,
                    max_size=50))
    def test_burst_count_matches_threshold_crossings(self, gaps):
        ts = 0.0
        records = []
        for gap in gaps:
            ts += gap
            records.append(rec(1, 0, 10, ts))
        bursts, _ = extract_bursts(records, threshold=0.5)
        # Expected: one burst per *realised* timestamp gap >= threshold
        # (computed on the accumulated floats, exactly as the extractor
        # sees them — summing the raw gaps would disagree by one ULP).
        realised = [b.timestamp - a.timestamp
                    for a, b in zip(records, records[1:], strict=False)]
        expected = 1 + sum(1 for g in realised if g >= 0.5)
        assert len(bursts) == expected
