"""Host-normalised timing.

The benchmark host's speed drifts: on a shared 2-vCPU machine one
identical replay cell took anywhere from 1.6 to 2.9 s within a single
process, with CPU time equal to wall time and no steal.  So every timed
interval is bracketed by a fixed reference loop and reported as seconds
at *nominal* host speed::

    normalised = raw * NOMINAL_REF_S / mean(ref_before, ref_after)

Long in-process intervals are also sampled: the loop runs every
``sample_every`` seconds inside them and each segment between two loops
is normalised by those two (see :class:`HostTimer`).

The loop is pure Python, imports nothing from ``repro`` and creates no
GC-tracked object per iteration (the ``int``, ``float`` and ``str``
objects it churns are not tracked), so neither the code under test nor
the collector's state changes what it measures.
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass

#: Iterations of the reference loop: 8 to 20 ms on the 2-vCPU host the
#: benchmark was tuned on, depending on how busy the host is.
REF_ITERATIONS = 25_000
#: What one reference loop takes on a nominal host: the constant that
#: turns a ratio to the loop back into seconds.
NOMINAL_REF_S = 0.020


class _Cell:
    __slots__ = ("energy", "time", "count", "name")

    def __init__(self, i: int) -> None:
        self.energy = i * 0.25
        self.time = float(i)
        self.count = i
        self.name = f"cell{i}"


_SIZE = 4096
_MASK = _SIZE - 1
_CELLS = [_Cell(i) for i in range(_SIZE)]
_ORDER = [(i * 2654435761) & _MASK for i in range(_SIZE)]
_KEYS = {f"k{i}": (i * 40503) & _MASK for i in range(_SIZE)}
_KEY_NAMES = [f"k{(i * 7919) & _MASK}" for i in range(_SIZE)]


def _add_energy(cell: _Cell, x: int) -> int:
    cell.energy += x * 0.5
    return cell.count


def _advance(cell: _Cell, x: int) -> int:
    if x & 1:
        cell.time = cell.time * 0.999 + x
    else:
        cell.time -= 1.0
    return int(cell.time)


def _bump(cell: _Cell, x: int) -> int:
    cell.count = (cell.count * 31 + x) & 0xFFFF
    return cell.count


def _name_length(cell: _Cell, x: int) -> int:
    return len(cell.name) + x


def _classify(cell: _Cell, x: int) -> int:
    energy = cell.energy
    return 1 if energy > 100.0 else (2 if energy > 10.0 else 3)


def _lookup(cell: _Cell, x: int) -> int:
    return _KEYS.get(_KEY_NAMES[x & _MASK], 0)


def _mix(cell: _Cell, x: int) -> int:
    return (cell.count ^ x) % 4093


def _clamp(cell: _Cell, x: int) -> int:
    cell.energy = cell.energy * 0.5 if cell.energy > 1e6 else cell.energy
    return x


_STEPS = [_add_energy, _advance, _bump, _name_length, _classify, _lookup,
          _mix, _clamp]


def reference_loop(iterations: int = REF_ITERATIONS) -> int:
    """The fixed workload the host's speed is measured with.

    A small mix of what the simulator's hot loops do — indexing, calls
    through a table of small functions, attribute reads and writes on
    slotted objects, dict lookups by string key, float and integer
    arithmetic, branches — over a few hundred kilobytes of objects.  A
    plain integer loop tracks the simulator less well: when the host
    slows down, the simulator slows down more than such a loop does.
    """
    cells, order, steps = _CELLS, _ORDER, _STEPS
    j = 0
    for i in range(iterations):
        j = steps[i & 7](cells[order[j]], i) & _MASK
    return j


def time_reference() -> float:
    """Raw seconds one reference loop takes right now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def time_reference_beside(helpers: int) -> float:
    """Raw seconds one reference loop takes while ``helpers`` forked
    processes run the same loop beside it, as busy as the machine is
    while that many sweep workers run."""
    if helpers <= 0:
        return time_reference()
    ready, ready_w = os.pipe()
    pids = []
    for _ in range(helpers):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the helper
            try:
                os.write(ready_w, b"r")
                reference_loop(3 * REF_ITERATIONS)
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(ready_w)
    try:
        for _ in pids:
            os.read(ready, 1)
        return time_reference()
    finally:
        os.close(ready)
        for pid in pids:
            os.waitpid(pid, 0)


def normalise(raw: float, ref_before: float, ref_after: float) -> float:
    """``raw`` seconds expressed at nominal host speed."""
    return raw * NOMINAL_REF_S / ((ref_before + ref_after) / 2.0)


@dataclass(frozen=True, slots=True)
class Interval:
    """One timed interval, as segments separated by reference loops.

    ``refs`` holds one more timing than ``segments``: the loop before
    the first segment, the loops between segments and the loop after
    the last.  Each segment is normalised by the two loops around it.
    """

    segments: tuple[float, ...]
    refs: tuple[float, ...]

    @property
    def raw(self) -> float:
        return sum(self.segments)

    @property
    def normalised(self) -> float:
        return sum(normalise(seg, before, after) for seg, before, after
                   in zip(self.segments, self.refs, self.refs[1:]))


class HostTimer:
    """Times intervals, each bracketed by a reference loop.

    Intervals timed back to back with :meth:`lap` share the loop
    between them: the loop run after one is the one before the next.

    With ``sample_every`` (seconds) the loop also runs inside a long
    interval, from a ``SIGALRM`` handler at that period, splitting it
    into segments that are each normalised by the loops around them;
    the handler's own time is left out.  Host speed drifts within a
    multi-second cell, so the loops at its two ends alone say little
    about it.  Only sample where this process does the timed work
    itself, not while sweep workers run beside it.

    With ``helpers`` the loop is timed while that many forked helpers
    run it too: for intervals in which sweep workers keep every CPU
    busy, a loop run alone in an idle machine misjudges the host.

    ``refs`` keeps every reference timing taken, for the
    ``host.ref_ms_p50`` metric.
    """

    def __init__(self, *, sample_every: float | None = None,
                 helpers: int = 0) -> None:
        self.refs: list[float] = []
        self.sample_every = sample_every
        self.helpers = helpers
        self._segment_start = 0.0
        self._segments: list[float] = []
        self._interval_refs: list[float] = []

    def _reference(self) -> float:
        ref = time_reference_beside(self.helpers)
        self.refs.append(ref)
        return ref

    def _on_alarm(self, signum: int, frame: object) -> None:
        self._segments.append(time.perf_counter() - self._segment_start)
        self._interval_refs.append(self._reference())
        self._segment_start = time.perf_counter()

    def _begin(self, ref: float) -> None:
        self._segments = []
        self._interval_refs = [ref]
        if self.sample_every is not None:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every,
                             self.sample_every)
        self._segment_start = time.perf_counter()

    def cancel(self) -> None:
        """Abandon the running interval, if any."""
        if self.sample_every is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._interval_refs = []

    def start(self) -> None:
        self._begin(self._reference())

    def stop(self) -> Interval:
        if self.sample_every is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._segments.append(time.perf_counter() - self._segment_start)
        if not self._interval_refs:
            raise RuntimeError("HostTimer.stop() without start()")
        self._interval_refs.append(self._reference())
        interval = Interval(tuple(self._segments),
                            tuple(self._interval_refs))
        self._interval_refs = []
        return interval

    def lap(self) -> Interval:
        """Stop the running interval and start the next one."""
        interval = self.stop()
        self._begin(interval.refs[-1])
        return interval


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)
