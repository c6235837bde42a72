"""Execution profiles and evaluation stages (§2.1-§2.2).

An :class:`ExecutionProfile` is the device-independent record FlexFetch
keeps for a program: alternating I/O bursts and think times.  For
decision making it is segmented into *evaluation stages* — "continuous
I/O bursts, including think times between them, whose length just
exceeds a pre-determined threshold, say 40 seconds" — so the decision
can be re-examined at stage granularity.

The §2.3.1 *splice* — "whenever the amount just exceeds the amount of
data requested in the first N I/O bursts, we use the new profile for
this run to replace the N I/O bursts in the old profile" — is realised
as byte positioning: the decision rule is re-run on
``upcoming_slice(observed_bytes, horizon)`` of the recorded profile.
That is the slice the assembled profile would yield.  With
``N = burst_index_for_bytes(observed_bytes)``, every observed burst's
cumulative byte count is at most ``observed_bytes``, so in the assembled
profile (observed bursts, then old bursts ``N..``) that byte count lands
on old burst ``N`` — where the recorded profile's own slice starts — and
both slices walk the same old bursts and thinks from there.  An
observation past the whole profile leaves both slices empty.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.burst import (
    BURST_THRESHOLD_DEFAULT,
    IOBurst,
    extract_bursts,
)
from repro.traces.trace import Trace
from repro.units import Bytes, Seconds

#: Default evaluation-stage length (§2.2/§3.1: "40 seconds").
STAGE_LENGTH_DEFAULT: float = 40.0


@dataclass(frozen=True, slots=True)
class Stage:
    """One evaluation stage: a slice of the profile's bursts.

    ``index`` is the stage ordinal; ``first``/``last`` are burst indices
    (inclusive); ``duration`` is the recorded wall length (bursts +
    enclosed thinks); ``nbytes`` the total bytes requested.
    """

    index: int
    first: int
    last: int
    duration: Seconds
    nbytes: Bytes

    @property
    def burst_count(self) -> int:
        return self.last - self.first + 1


class ExecutionProfile:
    """Bursts + think times of one (or several merged) program runs.

    Parameters
    ----------
    bursts / thinks:
        As produced by :func:`~repro.core.burst.extract_bursts`;
        ``thinks[i]`` follows ``bursts[i]`` and the lists match in length.
    name:
        Provenance label (program name).
    """

    def __init__(self, bursts: Sequence[IOBurst], thinks: Sequence[float],
                 *, name: str = "profile") -> None:
        if len(bursts) != len(thinks):
            raise ValueError("bursts and thinks must align")
        self.name = name
        self.bursts: tuple[IOBurst, ...] = tuple(bursts)
        self.thinks: tuple[float, ...] = tuple(thinks)
        # Cumulative requested bytes after each burst, for position lookup.
        cum = []
        total = 0
        for b in self.bursts:
            total += b.nbytes
            cum.append(total)
        self._cum_bytes: list[int] = cum

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bursts)

    @property
    def total_bytes(self) -> Bytes:
        return self._cum_bytes[-1] if self._cum_bytes else 0

    @property
    def total_duration(self) -> Seconds:
        """Recorded wall length: bursts plus inter-burst thinks."""
        return (sum(b.duration for b in self.bursts)
                + sum(self.thinks[:-1] if self.thinks else ()))

    def bytes_through(self, burst_index: int) -> int:
        """Cumulative bytes of bursts ``0..burst_index`` inclusive."""
        if not 0 <= burst_index < len(self.bursts):
            raise IndexError(burst_index)
        return self._cum_bytes[burst_index]

    def burst_index_for_bytes(self, nbytes: Bytes) -> Bytes:
        """Index of the first burst whose cumulative bytes reach ``nbytes``.

        Returns ``len(self)`` when ``nbytes`` exceeds the whole profile.
        """
        return bisect.bisect_left(self._cum_bytes, max(0, nbytes) + 1) \
            if nbytes >= 0 else 0

    # ------------------------------------------------------------------
    def stages(self, stage_length: float = STAGE_LENGTH_DEFAULT
               ) -> list[Stage]:
        """Segment into evaluation stages of about ``stage_length`` seconds.

        Bursts (with their trailing thinks) accumulate until the running
        length *just exceeds* the threshold, then a stage closes.  The
        final stage takes whatever remains.
        """
        if stage_length <= 0:
            raise ValueError("stage length must be positive")
        stages: list[Stage] = []
        first = 0
        acc = 0.0
        nbytes = 0
        for i, burst in enumerate(self.bursts):
            acc += burst.duration
            nbytes += burst.nbytes
            is_last = i == len(self.bursts) - 1
            if not is_last:
                acc += self.thinks[i]
            if acc > stage_length or is_last:
                stages.append(Stage(index=len(stages), first=first, last=i,
                                    duration=acc, nbytes=nbytes))
                first = i + 1
                acc = 0.0
                nbytes = 0
        return stages

    def stage_slice(self, stage: Stage) -> tuple[tuple[IOBurst, ...],
                                                 tuple[float, ...]]:
        """The bursts and thinks belonging to one stage."""
        bursts = self.bursts[stage.first:stage.last + 1]
        thinks = self.thinks[stage.first:stage.last + 1]
        return bursts, thinks

    def upcoming_slice(self, nbytes_seen: Bytes, horizon: Seconds
                       ) -> tuple[list[IOBurst], list[float]]:
        """The next ~``horizon`` seconds of profile after ``nbytes_seen``.

        The decision rules replay this slice through the device clones.
        A one-stage horizon is myopic — a one-time cost like the active
        disk's spin-down tail dominates and pins the choice to the
        incumbent device — so callers typically look a couple of stage
        lengths ahead.
        """
        start = self.burst_index_for_bytes(nbytes_seen)
        bursts: list[IOBurst] = []
        thinks: list[float] = []
        acc = 0.0
        for i in range(start, len(self.bursts)):
            bursts.append(self.bursts[i])
            thinks.append(self.thinks[i])
            acc += self.bursts[i].duration + self.thinks[i]
            if acc > horizon:
                break
        return bursts, thinks

    # ------------------------------------------------------------------
    def merged_with(self, other: ExecutionProfile) -> ExecutionProfile:
        """Aggregate profile of concurrently running programs (§2.3.4).

        Bursts are interleaved on their recorded timestamps and think
        times recomputed from the merged timeline.
        """
        events = sorted(list(self.bursts) + list(other.bursts),
                        key=lambda b: b.start)
        thinks: list[float] = []
        for cur, nxt in zip(events, events[1:], strict=False):
            thinks.append(max(0.0, nxt.start - cur.end))
        if events:
            thinks.append(0.0)
        return ExecutionProfile(events, thinks,
                                name=f"{self.name}|{other.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionProfile {self.name!r} bursts={len(self.bursts)}"
                f" bytes={self.total_bytes}"
                f" duration={self.total_duration:.1f}s>")


def profile_from_trace(trace: Trace, *,
                       threshold: float = BURST_THRESHOLD_DEFAULT
                       ) -> ExecutionProfile:
    """Extract an execution profile from a recorded trace (§2.1)."""
    bursts, thinks = extract_bursts(trace.data_records(),
                                    threshold=threshold)
    return ExecutionProfile(bursts, thinks, name=trace.name)
