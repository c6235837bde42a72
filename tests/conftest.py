"""Shared fixtures for the FlexFetch reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.profile import profile_from_trace
from repro.core.workload import ProgramSpec
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.traces.record import FileInfo, OpType, SyscallRecord
from repro.traces.trace import Trace


@pytest.fixture
def disk_spec():
    """The paper's Table 1 disk."""
    return HITACHI_DK23DA


@pytest.fixture
def wnic_spec():
    """The paper's Table 2 WNIC at default link settings."""
    return AIRONET_350


def make_trace(calls, *, name="t", file_sizes=None, pid=100):
    """Build a small validated trace from ``(inode, offset, size, op, ts)``
    tuples (op may be an OpType or 'read'/'write'); file sizes default to
    covering the largest access."""
    records = []
    max_touch: dict[int, int] = {}
    for inode, offset, size, op, ts in calls:
        op = OpType(op)
        records.append(SyscallRecord(pid=pid, fd=3, inode=inode,
                                     offset=offset, size=size, op=op,
                                     timestamp=ts, duration=0.0))
        max_touch[inode] = max(max_touch.get(inode, 0), offset + size)
    sizes = dict(max_touch)
    if file_sizes:
        for inode, size in file_sizes.items():
            sizes[inode] = max(sizes.get(inode, 0), size)
    files = {inode: FileInfo(inode=inode, path=f"f{inode}",
                             size_bytes=size)
             for inode, size in sizes.items()}
    return Trace(name, records, files)


@pytest.fixture
def tiny_trace():
    """Three reads of one file with distinct think gaps."""
    return make_trace([
        (1, 0, 4096, "read", 0.0),
        (1, 4096, 4096, "read", 0.005),   # same burst (< 20 ms gap)
        (1, 8192, 4096, "read", 5.0),     # new burst
    ])


@pytest.fixture
def sparse_trace():
    """Small reads separated by 30 s gaps (> disk spin-down timeout)."""
    calls = [(1, i * 65536, 65536, "read", i * 30.0) for i in range(6)]
    return make_trace(calls, file_sizes={1: 6 * 65536})


@pytest.fixture
def bursty_trace():
    """One dense 8 MB sequential burst (disk-friendly)."""
    calls = [(1, i * 131072, 131072, "read", i * 0.001) for i in range(64)]
    return make_trace(calls, file_sizes={1: 64 * 131072})


def program(trace, **kwargs):
    """Shorthand ProgramSpec."""
    return ProgramSpec(trace, **kwargs)


def profile_of(trace):
    """Shorthand profile extraction."""
    return profile_from_trace(trace)
