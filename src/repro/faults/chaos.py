"""Chaos injection for the sweep *orchestrator* (not the simulated device).

PR 1's fault schedules perturb the simulated hardware; this module
perturbs the machinery that runs the simulations: seeded injectors that
SIGKILL a worker process mid-cell, stall a cell past the supervisor's
wall-clock timeout, or corrupt freshly written run-cache rows.  The
chaos test suite uses them to prove that a supervised sweep's final
grid is bit-identical to a fault-free serial run under every injected
failure.

Every injection decision is a pure function of ``(spec, seed, cell
index, attempt)`` — the same decision is reached in the parent and in
any worker, on any machine, in any completion order.  ``max_hit_attempts``
caps how many attempts of one cell can be perturbed, so a supervisor
with a bounded retry budget is still guaranteed to converge when the
probabilities are 1.0.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.faults.schedule import FaultSpecError
from repro.sim.rng import make_rng
from repro.units import Seconds, require_finite_fields

#: Bytes written over a cache row by the ``corrupt`` action.  Not JSON,
#: so the fail-open reader must classify the row as corrupt.
_GARBAGE = b"\x00chaos\xff not json {"


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Tunables of one orchestrator-chaos campaign (all zero = inert).

    kill_prob:
        Per-attempt probability that the worker running the cell is
        SIGKILLed before the simulation starts.
    hang_prob:
        Per-attempt probability that the cell stalls for
        ``hang_seconds`` before simulating (long enough to trip a
        supervisor timeout).
    hang_seconds:
        Stall duration of the ``hang`` action.
    corrupt_prob / truncate_prob:
        Per-cell probability that the cache row written for the cell is
        overwritten with garbage / truncated mid-payload after the
        sweep stores it (exercises the fail-open cache path on the
        *next* sweep).
    max_hit_attempts:
        Attempts numbered above this run clean, guaranteeing progress
        under bounded retries even at probability 1.0.
    """

    kill_prob: float = 0.0
    hang_prob: float = 0.0
    hang_seconds: Seconds = 30.0
    corrupt_prob: float = 0.0
    truncate_prob: float = 0.0
    max_hit_attempts: int = 1

    def __post_init__(self) -> None:
        require_finite_fields(self, FaultSpecError)
        for name in ("kill_prob", "hang_prob", "corrupt_prob",
                     "truncate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultSpecError(f"{name} must be in [0, 1]")
        if self.kill_prob + self.hang_prob > 1.0:
            raise FaultSpecError(
                "kill_prob + hang_prob cannot exceed 1")
        if self.corrupt_prob + self.truncate_prob > 1.0:
            raise FaultSpecError(
                "corrupt_prob + truncate_prob cannot exceed 1")
        if self.hang_seconds <= 0:
            raise FaultSpecError("hang_seconds must be positive")
        if self.max_hit_attempts < 1:
            raise FaultSpecError("max_hit_attempts must be >= 1")

    @property
    def enabled(self) -> bool:
        """Whether any injection process has a non-zero probability."""
        return (self.kill_prob > 0 or self.hang_prob > 0
                or self.corrupt_prob > 0 or self.truncate_prob > 0)

    @classmethod
    def parse(cls, text: str) -> ChaosSpec:
        """Parse ``"kill-prob=0.5,hang-prob=0.2"`` into a spec.

        Mirrors :meth:`FaultSpec.parse`: dashes map to underscores and
        every knob is a float except the integer ``max_hit_attempts``.
        """
        known = {f.name: f for f in fields(cls)}
        values: dict[str, float | int] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            key = name.strip().replace("-", "_")
            if not sep or key not in known:
                raise FaultSpecError(
                    f"unknown chaos knob {name.strip()!r}; choose from "
                    + ", ".join(sorted(n.replace("_", "-") for n in known)))
            try:
                values[key] = int(raw) if key == "max_hit_attempts" \
                    else float(raw)
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for {name.strip()!r}: {raw!r}") from exc
        return cls(**values)  # type: ignore[arg-type]


def _draw(seed: int, stream: str) -> float:
    """One uniform [0, 1) draw on an isolated, named stream."""
    return float(make_rng(seed, stream).random())


class ChaosInjector:
    """Worker-side injector: kills or stalls the current attempt.

    Decisions are pure functions of ``(spec, seed, index, attempt)``;
    the actions themselves are violent on purpose — ``kill`` is a real
    ``SIGKILL`` of the calling process, ``hang`` a real sleep — so the
    supervisor's detection paths are exercised for real, not mocked.
    """

    def __init__(self, spec: ChaosSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed

    def action_for(self, index: int, attempt: int) -> str | None:
        """``"kill"``, ``"hang"`` or None for one (cell, attempt)."""
        if attempt > self.spec.max_hit_attempts:
            return None
        u = _draw(self.seed, f"chaos-worker-{index}-{attempt}")
        if u < self.spec.kill_prob:
            return "kill"
        if u < self.spec.kill_prob + self.spec.hang_prob:
            return "hang"
        return None

    def perturb(self, index: int, attempt: int) -> None:
        """Execute the planned action (if any) in the calling process."""
        action = self.action_for(index, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            time.sleep(self.spec.hang_seconds)


class CacheChaos:
    """Parent-side injector: damages freshly written run-cache rows.

    Called by the sweep executor right after a row is persisted, so the
    sweep that *wrote* the row is unaffected — the next (warm) sweep
    must detect the damage, count it, and fall back to a live
    simulation.  Decisions are per cell (not per attempt): a row is
    damaged at most once.
    """

    def __init__(self, spec: ChaosSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        #: rows damaged so far, by action name.
        self.injected: dict[str, int] = {"corrupt": 0, "truncate": 0}

    def action_for(self, index: int) -> str | None:
        """``"corrupt"``, ``"truncate"`` or None for one cell's row."""
        u = _draw(self.seed, f"chaos-cache-{index}")
        if u < self.spec.corrupt_prob:
            return "corrupt"
        if u < self.spec.corrupt_prob + self.spec.truncate_prob:
            return "truncate"
        return None

    def damage(self, path: Path, index: int) -> str | None:
        """Damage the row at ``path`` per the plan; returns the action."""
        action = self.action_for(index)
        if action == "corrupt":
            path.write_bytes(_GARBAGE)
        elif action == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[:max(1, len(data) // 2)])
        if action is not None:
            self.injected[action] += 1
        return action
