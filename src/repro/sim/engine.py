"""A minimal, deterministic discrete-event loop.

The replay (`repro.core.session.SimulationSession`) interleaves several
closed-loop programs (each alternating *think* and *I/O*), device power
timers (disk spin-down, WNIC CAM->PSM), and kernel write-back timers.  All
of that multiplexing is expressed as events on one :class:`EventLoop`.

The loop is intentionally small: an array-backed binary heap, a monotonic
clock, and a couple of safety rails (no scheduling into the past, an
event-count circuit breaker for runaway feedback loops).

The heap is three parallel columns kept in heap order together — an
``array('d')`` of fire times, an ``array('q')`` of packed
``(priority, insertion slot)`` keys, and a plain list of the
:class:`Event` records.  Sift comparisons touch only the two scalar
columns (C-level float/int compares instead of an ``Event.__lt__`` call
per probe), and the key packing preserves the documented total order
exactly: earlier time first, then lower priority, then insertion order.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterable

from repro.sim.clock import TIME_EPSILON
from repro.sim.events import PRIORITY_NORMAL, Event
from repro.units import Seconds

#: Priorities pack above the insertion slot in the int64 sort key, so
#: they are bounded; the defined levels (0/10/20) sit far below this.
_PRIORITY_MAX = (1 << 23) - 1
#: Bits reserved for the per-loop insertion slot inside the packed key.
_SLOT_BITS = 40


class SimulationError(RuntimeError):
    """Raised on invalid scheduling or a runaway simulation."""


class EventLoop:
    """Deterministic heap-based event loop.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock.
    max_events:
        Circuit breaker: processing more events than this raises
        :class:`SimulationError` instead of spinning forever.
    """

    #: Compaction threshold: dead events are purged from the heap once
    #: they outnumber the live ones (and there are enough to matter).
    _COMPACT_MIN = 64

    def __init__(self, start_time: Seconds = 0.0,
                 max_events: int = 50_000_000) -> None:
        self._now = float(start_time)
        # Parallel heap columns: same index = same event.
        self._times = array("d")
        self._keys = array("q")
        self._events: list[Event] = []
        self._max_events = int(max_events)
        self._processed = 0
        self._running = False
        #: Per-loop insertion slot for tie-breaking.  Assigning slots
        #: here (rather than from the module-global counter) makes an
        #: event's ordering a pure function of this loop's schedule —
        #: independent of how many loops ran earlier in the process,
        #: which is what lets parallel workers replay bit-identically.
        self._slot = 0
        #: dead records still sitting in the heap.
        self._cancelled = 0
        #: live (scheduled, not yet fired, not cancelled) events.
        self._live = 0

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> Seconds:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events fired so far (for diagnostics)."""
        return self._processed

    # ------------------------------------------------------------------
    # heap primitives (the three columns always move together)
    # ------------------------------------------------------------------
    def _heap_push(self, time: float, key: int, event: Event) -> None:
        times, keys, events = self._times, self._keys, self._events
        times.append(time)
        keys.append(key)
        events.append(event)
        pos = len(times) - 1
        while pos:
            parent = (pos - 1) >> 1
            pt = times[parent]
            if time < pt or (time == pt and key < keys[parent]):
                times[pos] = pt
                keys[pos] = keys[parent]
                events[pos] = events[parent]
                pos = parent
            else:
                break
        times[pos] = time
        keys[pos] = key
        events[pos] = event

    def _sift_down(self, pos: int) -> None:
        times, keys, events = self._times, self._keys, self._events
        n = len(times)
        t, k, e = times[pos], keys[pos], events[pos]
        child = 2 * pos + 1
        while child < n:
            ct, ck = times[child], keys[child]
            right = child + 1
            if right < n:
                rt = times[right]
                if rt < ct or (rt == ct and keys[right] < ck):
                    child, ct, ck = right, rt, keys[right]
            if t < ct or (t == ct and k < ck):
                break
            times[pos] = ct
            keys[pos] = ck
            events[pos] = events[child]
            pos = child
            child = 2 * pos + 1
        times[pos] = t
        keys[pos] = k
        events[pos] = e

    def _heap_pop(self) -> Event:
        """Remove and return the root event (columns stay in sync)."""
        times, keys, events = self._times, self._keys, self._events
        root = events[0]
        t, k, e = times.pop(), keys.pop(), events.pop()
        if times:
            times[0], keys[0], events[0] = t, k, e
            self._sift_down(0)
        return root

    def _live_head_time(self) -> float | None:
        """Fire time of the next live event, or None when drained.

        The one place dead records leave the heap outside compaction:
        cancelled heads are popped (and the dead tally decremented)
        until a live event surfaces at the root.
        """
        times = self._times
        while times:
            head = self._events[0]
            if not head.cancelled:
                return times[0]
            self._heap_pop()
            head.loop = None
            if self._cancelled:
                self._cancelled -= 1
        return None

    def _next_live(self) -> Event | None:
        """Pop the next live event, or None when the heap is drained."""
        if self._live_head_time() is None:
            return None
        event = self._heap_pop()
        event.loop = None
        self._live -= 1
        return event

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], None], *,
                    priority: int = PRIORITY_NORMAL,
                    label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time``.

        Scheduling earlier than ``now`` (beyond float jitter) is an error;
        a timestamp within ``TIME_EPSILON`` of now is clamped to now.
        """
        if time < self._now - TIME_EPSILON:
            raise SimulationError(
                f"cannot schedule into the past: t={time!r} < now={self._now!r}")
        if not 0 <= priority <= _PRIORITY_MAX:
            raise SimulationError(
                f"priority out of range [0, {_PRIORITY_MAX}]: {priority!r}")
        slot = self._slot
        self._slot = slot + 1
        if time < self._now:
            time = self._now
        event = Event(time=time, priority=priority, seq=slot,
                      callback=callback, label=label, loop=self)
        self._heap_push(time, (priority << _SLOT_BITS) | slot, event)
        self._live += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None], *,
                       priority: int = PRIORITY_NORMAL,
                       label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule_at(self._now + delay, callback,
                                priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.

        Equivalent to ``event.cancel()``: the event notifies the loop it
        sits in either way, so the live/dead tallies and the lazy heap
        compaction behave identically through both entry points.
        """
        event.cancel()

    def _note_cancelled(self) -> None:
        """A live in-heap event was just cancelled (via ``Event.cancel``).

        Keeps a tally and, once dead events outnumber live ones, filters
        them out in place (one O(n) rebuild, amortised O(1) per cancel)
        instead of re-heapifying on every cancellation — a workload that
        cancels most of what it schedules (DPM timers rearmed on every
        request) would otherwise drag a mostly-dead heap through every
        sift.
        """
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled >= self._COMPACT_MIN
                and self._cancelled * 2 > len(self._events)):
            keep = [(t, k, e) for t, k, e in
                    zip(self._times, self._keys, self._events)
                    if not e.cancelled]
            self._times = array("d", [t for t, _, _ in keep])
            self._keys = array("q", [k for _, k, _ in keep])
            self._events = [e for _, _, e in keep]
            for pos in range(len(keep) // 2 - 1, -1, -1):
                self._sift_down(pos)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when none remain."""
        event = self._next_live()
        if event is None:
            return False
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"event budget exhausted after {self._max_events} events"
                f" (likely a feedback loop); last label={event.label!r}")
        self._now = event.time
        event.callback()
        return True

    def run(self) -> float:
        """Run until the heap drains.  Returns the final clock value."""
        if self._running:
            raise SimulationError("event loop is not re-entrant")
        self._running = True
        max_events = self._max_events
        next_live = self._next_live
        try:
            while True:
                event = next_live()
                if event is None:
                    break
                processed = self._processed + 1
                self._processed = processed
                if processed > max_events:
                    raise SimulationError(
                        f"event budget exhausted after {max_events} events"
                        f" (likely a feedback loop); last"
                        f" label={event.label!r}")
                self._now = event.time
                event.callback()
        finally:
            self._running = False
        return self._now

    def run_until(self, deadline: Seconds) -> Seconds:
        """Run events with ``time <= deadline``; advance clock to deadline.

        Events scheduled beyond the deadline stay pending.  Returns the
        final clock value (== ``deadline`` unless it was in the past).
        """
        if self._running:
            raise SimulationError("event loop is not re-entrant")
        self._running = True
        horizon = deadline + TIME_EPSILON
        try:
            while True:
                head_time = self._live_head_time()
                if head_time is None or head_time > horizon:
                    break
                event = self._heap_pop()
                event.loop = None
                self._live -= 1
                self._processed += 1
                if self._processed > self._max_events:
                    raise SimulationError(
                        f"event budget exhausted after {self._max_events}"
                        f" events (likely a feedback loop); last"
                        f" label={event.label!r}")
                self._now = event.time
                event.callback()
        finally:
            self._running = False
        if deadline > self._now:
            self._now = deadline
        return self._now

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def pending(self) -> Iterable[Event]:
        """Yield live (non-cancelled) pending events, unordered."""
        return (e for e in self._events if not e.cancelled)

    def pending_count(self) -> int:
        """Number of live pending events (O(1): a maintained counter)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EventLoop now={self._now:.6f}"
                f" pending={self.pending_count()}"
                f" processed={self._processed}>")
