"""I/O-burst extraction (§2.1).

"We define an I/O burst as a sequence of read/write system calls where
the think time is less than the I/O burst threshold.  In our experiments
we set the threshold as the disk access time, i.e., the average time to
receive the first byte of a random request on disk."  Within a burst,
"multiple requests that sequentially access the same file are merged
into one request of size up to 128 KB, the maximum prefetching window
size in Linux, to simulate the prefetch effects", and the small think
times inside a burst are not counted.

The extractor turns a recorded trace into an
:class:`~repro.core.profile.ExecutionProfile`.  At runtime
:class:`~repro.core.flexfetch.FlexFetchPolicy` needs less from the run
in progress: its demand byte count, which positions it in the recorded
profile (the §2.3.1 splice reduces to that position, see
:mod:`repro.core.profile`), and the moments an observed burst closes,
which trigger a re-evaluation.  :class:`OnlineBurstTracker` detects
exactly those, in O(1) per call, without building bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.devices.specs import HITACHI_DK23DA
from repro.sim.clock import KB
from repro.traces.record import OpType, SyscallRecord
from repro.units import Bytes, Seconds

#: Default burst threshold — the disk access time (avg seek + rotation).
BURST_THRESHOLD_DEFAULT: float = HITACHI_DK23DA.access_time

#: Linux maximum prefetching window (§2.1): merged requests cap here.
MERGE_LIMIT_BYTES: Bytes = 128 * KB


@dataclass(frozen=True, slots=True)
class ProfiledRequest:
    """One merged device-independent request inside a burst."""

    inode: int
    offset: int
    size: int
    op: OpType

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size <= 0:
            raise ValueError("profiled request needs offset>=0, size>0")

    @property
    def end_offset(self) -> int:
        return self.offset + self.size


@dataclass(frozen=True, slots=True)
class IOBurst:
    """A maximal run of calls separated by sub-threshold think times.

    ``start``/``end`` are recorded-run timestamps (used only for stage
    segmentation and diagnostics — replay re-times everything);
    ``requests`` are the post-merge device-independent requests.
    """

    requests: tuple[ProfiledRequest, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a burst has at least one request")
        if self.end < self.start:
            raise ValueError("burst ends before it starts")

    @property
    def nbytes(self) -> Bytes:
        """Total bytes requested in the burst."""
        return sum(r.size for r in self.requests)

    @property
    def duration(self) -> Seconds:
        """Recorded wall time of the burst."""
        return self.end - self.start

    @property
    def read_bytes(self) -> Bytes:
        return sum(r.size for r in self.requests if r.op is OpType.READ)

    @property
    def write_bytes(self) -> Bytes:
        return sum(r.size for r in self.requests if r.op is OpType.WRITE)


class _BurstAccumulator:
    """Mutable burst under construction, with sequential merging."""

    def __init__(self, first: SyscallRecord) -> None:
        self.start = first.timestamp
        self.end = first.end_time
        self.merged: list[ProfiledRequest] = []
        self._append(first)

    def _append(self, rec: SyscallRecord) -> None:
        last = self.merged[-1] if self.merged else None
        if (last is not None
                and last.inode == rec.inode
                and last.op == rec.op
                and last.end_offset == rec.offset
                and last.size + rec.size <= MERGE_LIMIT_BYTES):
            self.merged[-1] = ProfiledRequest(
                inode=last.inode, offset=last.offset,
                size=last.size + rec.size, op=last.op)
        else:
            self.merged.append(ProfiledRequest(
                inode=rec.inode, offset=rec.offset, size=rec.size,
                op=rec.op))

    def add(self, rec: SyscallRecord) -> None:
        self._append(rec)
        self.end = max(self.end, rec.end_time)

    def finish(self) -> IOBurst:
        return IOBurst(requests=tuple(self.merged), start=self.start,
                       end=self.end)


def extract_bursts(records: Iterable[SyscallRecord], *,
                   threshold: float = BURST_THRESHOLD_DEFAULT
                   ) -> tuple[list[IOBurst], list[float]]:
    """Split data-moving records into bursts and inter-burst think times.

    Returns ``(bursts, thinks)`` where ``thinks[i]`` is the think time
    *after* ``bursts[i]`` (the final entry is 0.0).  Records must be
    time-ordered; zero-size and non-data calls are skipped.
    """
    if threshold <= 0:
        raise ValueError("burst threshold must be positive")
    bursts: list[IOBurst] = []
    thinks: list[float] = []
    acc: _BurstAccumulator | None = None
    prev_end = 0.0
    for rec in records:
        if not rec.op.moves_data or rec.size == 0:
            continue
        if acc is None:
            acc = _BurstAccumulator(rec)
        else:
            gap = rec.timestamp - prev_end
            if gap >= threshold:
                bursts.append(acc.finish())
                thinks.append(max(0.0, gap))
                acc = _BurstAccumulator(rec)
            else:
                acc.add(rec)
        prev_end = max(prev_end, rec.end_time)
    if acc is not None:
        bursts.append(acc.finish())
        thinks.append(0.0)
    return bursts, thinks


class OnlineBurstTracker:
    """Streaming burst-boundary detection for the current run (§2.3.1).

    Feed each observed data-moving call with :meth:`observe`.  It
    reports whether the call opened a new burst (closing the previous
    one) on the same boundaries as :func:`extract_bursts`, and
    :attr:`total_bytes` counts the bytes observed so far — the sum of
    the bytes of every burst :func:`extract_bursts` would have built.
    """

    __slots__ = ("threshold", "total_bytes", "_prev_end")

    def __init__(self, *, threshold: float = BURST_THRESHOLD_DEFAULT) -> None:
        if threshold <= 0:
            raise ValueError("burst threshold must be positive")
        self.threshold = threshold
        self.total_bytes = 0
        self._prev_end = 0.0

    def observe(self, size: int, start: float, end: float) -> bool:
        """Record one serviced call; True if it closed a burst."""
        if size <= 0:
            return False
        closed = (self.total_bytes > 0
                  and start - self._prev_end >= self.threshold)
        # The same float steps as ``SyscallRecord.end_time`` with a
        # clamped duration, so every comparison matches the extractor.
        self._prev_end = max(self._prev_end, start + max(0.0, end - start))
        self.total_bytes += size
        return closed
