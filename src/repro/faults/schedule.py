"""Seeded, deterministic fault schedules.

Three fault processes, each with its own independent RNG stream derived
through :func:`repro.sim.rng.child_seed` (so adding draws to one never
perturbs another, and the whole schedule is a pure function of
``(spec, seed)``):

* **link outages** — Poisson arrivals with exponentially distributed
  durations; the wireless link is unreachable for the whole window;
* **802.11b rate fallback** — windows during which the card renegotiates
  down from its nominal rate to one of the lower PHY rates
  (11 -> 5.5 -> 2 -> 1 Mbps), modelling distance/interference;
* **disk spin-up failures** — a pre-drawn per-attempt failure sequence
  (a spin-up attempt burns the full spin-up energy and leaves the disk
  in standby).  Consecutive failures are capped so a retrying disk
  always eventually succeeds.

The schedule also carries the *handling* knobs (timeouts, retry budgets,
backoffs) so one object threads the whole fault story through the
devices, the simulator, and the CLI.  A schedule built from an all-zero
spec is inert: every query degenerates to the fault-free answer and the
devices never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Sequence

import numpy as np

from repro.sim.clock import Mbps
from repro.sim.rng import DEFAULT_SEED, make_rng
from repro.units import BytesPerSecond, Seconds, require_finite_fields

#: The lower 802.11b PHY rates a faulty link can fall back to, in
#: bytes/second, descending (§3.3 lists 11, 5.5, 2 and 1 Mbps).
FALLBACK_RATES_BPS: tuple[float, ...] = (Mbps(5.5), Mbps(2.0), Mbps(1.0))

#: Number of spin-up outcomes pre-drawn per schedule.
_SPINUP_DRAWS = 4096


class FaultSpecError(ValueError):
    """A fault specification could not be parsed or validated."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Tunables of one fault schedule (all rates zero = no faults).

    Injection processes
    -------------------
    outage_rate / outage_mean:
        Poisson arrival rate (1/s) and mean duration (s) of wireless
        link outages.
    rate_flap_rate / rate_flap_mean:
        Arrival rate and mean duration of 802.11b rate-fallback windows.
    spinup_fail_prob:
        Per-attempt probability that a disk spin-up fails to reach
        speed.
    horizon:
        Simulated seconds of schedule to generate.

    Handling knobs
    --------------
    network_timeout:
        Seconds an in-flight network fetch waits for the link before the
        attempt is declared failed.
    network_retries:
        Failed network attempts tolerated (after the first) before the
        simulator fails the fetch over to the disk.
    retry_backoff:
        Base of the simulator's exponential retry backoff (s).
    spinup_retries:
        Spin-up retries the *disk itself* performs (with exponential
        backoff from ``spinup_backoff``) before reporting failure.
    spinup_backoff:
        Base of the disk's spin-up retry backoff (s).
    failover_cooldown:
        Seconds the simulator avoids a device after failing over away
        from it.
    max_consecutive_spinup_failures:
        Generation-time cap guaranteeing a retrying disk eventually
        spins up.
    """

    outage_rate: float = 0.0
    outage_mean: float = 20.0
    rate_flap_rate: float = 0.0
    rate_flap_mean: float = 30.0
    spinup_fail_prob: float = 0.0
    horizon: float = 4000.0
    network_timeout: Seconds = 5.0
    network_retries: int = 2
    retry_backoff: float = 1.0
    spinup_retries: int = 2
    spinup_backoff: float = 0.5
    failover_cooldown: float = 30.0
    max_consecutive_spinup_failures: int = 8

    def __post_init__(self) -> None:
        require_finite_fields(self, FaultSpecError)
        for name in ("outage_rate", "rate_flap_rate", "retry_backoff",
                     "spinup_backoff", "failover_cooldown"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"{name} cannot be negative")
        for name in ("outage_mean", "rate_flap_mean", "horizon",
                     "network_timeout"):
            if getattr(self, name) <= 0:
                raise FaultSpecError(f"{name} must be positive")
        if not 0.0 <= self.spinup_fail_prob < 1.0:
            raise FaultSpecError("spinup_fail_prob must be in [0, 1)")
        if self.network_retries < 0 or self.spinup_retries < 0:
            raise FaultSpecError("retry budgets cannot be negative")
        if self.max_consecutive_spinup_failures < 1:
            raise FaultSpecError(
                "max_consecutive_spinup_failures must be >= 1")

    @property
    def enabled(self) -> bool:
        """Whether any fault process can actually fire."""
        return (self.outage_rate > 0 or self.rate_flap_rate > 0
                or self.spinup_fail_prob > 0)

    @classmethod
    def parse(cls, text: str) -> FaultSpec:
        """Build a spec from a ``key=value,key=value`` CLI string.

        Keys are the dataclass field names; values are coerced to the
        field's type.  Unknown keys and uncoercible values raise
        :class:`FaultSpecError` naming the valid vocabulary.
        """
        kwargs: dict[str, float | int] = {}
        types = {f.name: f.type for f in fields(cls)}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in types:
                raise FaultSpecError(
                    f"bad fault spec entry {chunk!r}; expected key=value"
                    f" with key in {sorted(types)}")
            try:
                kwargs[key] = (int(value) if types[key] == "int"
                               else float(value))
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for {key!r}: {value!r}") from exc
        try:
            return cls(**kwargs)
        except FaultSpecError:
            raise
        except (TypeError, ValueError) as exc:  # pragma: no cover - guard
            raise FaultSpecError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
class RateWindow:
    """One rate-fallback window: the link runs at ``rate_bps`` during
    ``[start, end)``."""

    start: float
    end: float
    rate_bps: BytesPerSecond

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FaultSpecError("rate window must have positive length")
        if self.rate_bps <= 0:
            raise FaultSpecError("fallback rate must be positive")


def _poisson_windows(rng: np.random.Generator, rate: float, mean: float,
                     horizon: float) -> list[tuple[float, float]]:
    """Non-overlapping ``(start, end)`` windows: Poisson arrivals with
    exponential durations (the next arrival clock starts at the previous
    window's end, so windows never overlap)."""
    if rate <= 0:
        return []
    out: list[tuple[float, float]] = []
    t = float(rng.exponential(1.0 / rate))
    while t < horizon:
        duration = max(1e-3, float(rng.exponential(mean)))
        out.append((t, t + duration))
        t = t + duration + float(rng.exponential(1.0 / rate))
    return out


def _spinup_draws(rng: np.random.Generator, prob: float, n: int,
                  cap: int) -> tuple[bool, ...]:
    """Pre-drawn spin-up outcomes with at most ``cap`` consecutive
    failures (True = this attempt fails)."""
    if prob <= 0:
        return ()
    out: list[bool] = []
    run = 0
    for x in rng.random(n):
        fail = bool(x < prob) and run < cap
        run = run + 1 if fail else 0
        out.append(fail)
    return tuple(out)


class FaultSchedule:
    """A concrete, fully materialised fault timeline.

    Parameters
    ----------
    spec:
        Process rates and handling knobs; defaults to the inert
        all-zero spec.
    seed:
        Experiment seed; each process derives its own stream via
        :func:`~repro.sim.rng.child_seed`.
    outages / rate_windows / spinup_failures:
        Explicit timelines overriding the generated ones — the unit
        tests and the shape experiments place faults deliberately.

    The schedule's only mutable state is the spin-up outcome cursor;
    use :meth:`copy` to obtain a fresh, rewound schedule for another
    run over the same timeline.
    """

    def __init__(self, spec: FaultSpec | None = None, *,
                 seed: int = DEFAULT_SEED,
                 outages: Sequence[tuple[float, float]] | None = None,
                 rate_windows: Sequence[RateWindow] | None = None,
                 spinup_failures: Sequence[bool] | None = None) -> None:
        self.spec = spec or FaultSpec()
        self.seed = int(seed)
        if outages is None:
            outages = _poisson_windows(
                make_rng(seed, "faults.outages"), self.spec.outage_rate,
                self.spec.outage_mean, self.spec.horizon)
        if rate_windows is None:
            windows = _poisson_windows(
                make_rng(seed, "faults.rate"), self.spec.rate_flap_rate,
                self.spec.rate_flap_mean, self.spec.horizon)
            pick = make_rng(seed, "faults.rate-choice")
            rate_windows = [
                RateWindow(start, end,
                           FALLBACK_RATES_BPS[
                               int(pick.integers(len(FALLBACK_RATES_BPS)))])
                for start, end in windows
            ]
        if spinup_failures is None:
            spinup_failures = _spinup_draws(
                make_rng(seed, "faults.spinup"), self.spec.spinup_fail_prob,
                _SPINUP_DRAWS, self.spec.max_consecutive_spinup_failures)
        self.outages: tuple[tuple[float, float], ...] = tuple(
            (float(a), float(b)) for a, b in sorted(outages))
        for a, b in self.outages:
            if b <= a:
                raise FaultSpecError(f"outage ({a}, {b}) has no duration")
        self.rate_windows: tuple[RateWindow, ...] = tuple(
            sorted(rate_windows, key=lambda w: w.start))
        self._spinup_failures: tuple[bool, ...] = tuple(
            bool(x) for x in spinup_failures)
        self._spinup_cursor = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this schedule can perturb a run at all."""
        return bool(self.outages or self.rate_windows
                    or any(self._spinup_failures))

    @property
    def affects_network(self) -> bool:
        return bool(self.outages or self.rate_windows)

    @property
    def affects_disk(self) -> bool:
        return any(self._spinup_failures)

    def copy(self) -> FaultSchedule:
        """Same timeline, spin-up cursor rewound (for a fresh run)."""
        new = FaultSchedule(self.spec, seed=self.seed,
                            outages=self.outages,
                            rate_windows=self.rate_windows,
                            spinup_failures=self._spinup_failures)
        return new

    # ------------------------------------------------------------------
    # wireless link queries
    # ------------------------------------------------------------------
    def link_available(self, t: float) -> bool:
        """Is the link up at time ``t``?  Outages are half-open
        ``[start, end)``."""
        return self._outage_covering(t) is None

    def _outage_covering(self, t: float) -> tuple[float, float] | None:
        for start, end in self.outages:
            if start <= t < end:
                return (start, end)
            if start > t:
                break
        return None

    def outage_end(self, t: float) -> float:
        """End of the outage covering ``t`` (``t`` itself if none)."""
        window = self._outage_covering(t)
        return window[1] if window is not None else t

    def outage_start_within(self, t0: float, t1: float) -> float | None:
        """Start of the first outage beginning in ``[t0, t1)``, if any."""
        for start, _end in self.outages:
            if start >= t1:
                return None
            if start >= t0:
                return start
        return None

    def network_bandwidth(self, t: float,
                          nominal_bps: BytesPerSecond) -> BytesPerSecond:
        """Effective link rate at ``t``: the nominal rate, capped by any
        rate-fallback window in force."""
        for window in self.rate_windows:
            if window.start <= t < window.end:
                return min(nominal_bps, window.rate_bps)
            if window.start > t:
                break
        return nominal_bps

    # ------------------------------------------------------------------
    # disk spin-up queries
    # ------------------------------------------------------------------
    def next_spinup_fails(self) -> bool:
        """Consume and return the next spin-up outcome (False once the
        pre-drawn sequence is exhausted)."""
        if self._spinup_cursor >= len(self._spinup_failures):
            return False
        fail = self._spinup_failures[self._spinup_cursor]
        self._spinup_cursor += 1
        return fail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultSchedule outages={len(self.outages)}"
                f" rate_windows={len(self.rate_windows)}"
                f" spinup_failures={sum(self._spinup_failures)}>")
