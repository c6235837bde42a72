"""The FlexFetch policy (§2) and its static ablation.

FlexFetch proactively picks the data source for each *evaluation stage*
from a recorded execution profile (§2.2: the upcoming profile slice is
replayed through clones of both devices and the three decision rules
pick with the user's loss rate), then keeps the decision honest against
runtime dynamics (§2.3): splice re-evaluation as observed bursts close
(§2.3.1), the stage-end audit against a counterfactual replay on the
alternative device (§2.3.1, see :mod:`repro.core.audit`), the
buffer-cache filter (§2.3.2), and free-riding on an externally
kept-alive disk (§2.3.3).

All device arithmetic goes through the system's shared
:class:`~repro.core.costmodel.CostModel`; this module holds only the
decision machinery.  ``FlexFetchConfig(adaptive=False)`` yields
**FlexFetch-static**, the §3.3.4 ablation with profile-driven decisions
but none of the runtime adaptation (its tunables live in
:mod:`repro.core.flexfetch_config`).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.audit import StageAccounting, audit_stage
from repro.core.burst import OnlineBurstTracker, ProfiledRequest
from repro.core.decision import DataSource, DecisionInputs, decide
from repro.core.flexfetch_config import FlexFetchConfig
from repro.core.policies import Policy, RequestContext
from repro.core.profile import ExecutionProfile
from repro.units import Joules, Seconds

__all__ = ["FlexFetchConfig", "FlexFetchPolicy"]

#: old private name, kept importable for introspection-heavy callers.
_StageAccounting = StageAccounting


class FlexFetchPolicy(Policy):
    """History-aware, environment-adaptive data-source selection.

    Parameters
    ----------
    profile:
        The recorded :class:`ExecutionProfile` of a prior run ("the
        profile that has been recorded for the program", §2.2).  For the
        §3.3.5 invalid-profile experiment this intentionally differs
        from the trace being replayed.
    config:
        Tunables; ``FlexFetchConfig(adaptive=False)`` = FlexFetch-static.
    """

    name = "FlexFetch"

    @classmethod
    def for_programs(cls, profiles: list[ExecutionProfile],
                     config: FlexFetchConfig | None = None
                     ) -> FlexFetchPolicy:
        """Build a policy for concurrently running profiled programs.

        §2.3.4: "When multiple programs concurrently issue I/O requests,
        FlexFetch merges these programs' profiles and forms evaluation
        stage on the aggregate profile."  The profiles are interleaved
        on their recorded timelines and the result drives one shared
        policy instance (the runtime tracker already aggregates all
        profiled programs' syscalls).
        """
        if not profiles:
            raise ValueError("need at least one profile")
        merged = profiles[0]
        for other in profiles[1:]:
            merged = merged.merged_with(other)
        return cls(merged, config)

    def __init__(self, profile: ExecutionProfile,
                 config: FlexFetchConfig | None = None) -> None:
        super().__init__()
        self.profile = profile
        self.config = config or FlexFetchConfig()
        if not self.config.adaptive:
            self.name = "FlexFetch-static"
        self.tracker = OnlineBurstTracker(
            threshold=self.config.burst_threshold)
        self.current_source = DataSource.DISK
        self.profile_trusted = True
        self.audit_override: DataSource | None = None
        self._stage: StageAccounting | None = None
        #: only the stage audit reads a stage's observed requests.
        self._records_stage = self.config.feature("stage_audit")
        self._external_times: deque[float] = deque(maxlen=8)
        # diagnostics
        self.decision_log: list[tuple[float, DataSource, str]] = []
        self.audit_log: list[tuple[float, float, float, DataSource]] = []
        self.free_rides = 0
        self.splice_flips = 0
        self.fault_failovers = 0
        #: old-profile burst index the observed byte count has reached;
        #: crossing it triggers the §2.3.1 re-evaluation.
        self._boundary_seen = 0
        self._last_reevaluation = float("-inf")

    # ------------------------------------------------------------------
    # decision machinery
    # ------------------------------------------------------------------
    def _decide_from_profile(self, now: Seconds, *, reason: str
                             ) -> DataSource:
        """Run the §2.2 rules on the upcoming profile slice.

        The slice starts at the demand byte count observed so far: the
        §2.3.1 assembled profile (observed bursts replacing the old ones
        they cover) yields exactly this slice, so it is never built (see
        :mod:`repro.core.profile`).

        A switch away from the current source must clear the configured
        hysteresis margin in estimated energy; near-break-even stages
        keep the incumbent to avoid paying transition costs for noise.
        """
        assert self.env is not None
        bursts, thinks = self.profile.upcoming_slice(
            self.tracker.total_bytes,
            self.config.stage_length * self.config.decision_horizon_stages)
        if not bursts:
            # Nothing known ahead: keep the current source.
            return self.current_source
        vfs = self.env.vfs if self.config.feature("cache_filter") else None
        if self.config.adaptive:
            # Live device states: the §2.2 on-line simulators start from
            # where the real devices are right now.
            disk, wnic = None, None
        else:
            # FlexFetch-static decides "solely based on the profile"
            # (§3.3.4): its what-if devices are pristine (disk spun
            # down, WNIC dozing), blind to the runtime environment.
            from repro.devices.disk import HardDisk
            from repro.devices.wnic import WirelessNic
            disk = HardDisk(self.env.disk.spec, start_time=now)
            wnic = WirelessNic(self.env.wnic.spec, start_time=now)
        d, n = self.env.cost_model.stage_pair(bursts, thinks, now=now,
                                              vfs=vfs, disk=disk,
                                              wnic=wnic)
        source = decide(DecisionInputs(t_disk=d.time, e_disk=d.energy,
                                       t_network=n.time,
                                       e_network=n.energy),
                        loss_rate=self.config.loss_rate)
        if source != self.current_source and reason != "initial":
            cur_e = d.energy if self.current_source is DataSource.DISK \
                else n.energy
            new_e = d.energy if source is DataSource.DISK else n.energy
            if new_e >= cur_e * (1.0 - self.config.switch_hysteresis):
                source = self.current_source
        self.decision_log.append((now, source, reason))
        return source

    def _begin_stage(self, now: Seconds, source: DataSource) -> None:
        assert self.env is not None
        self.current_source = source
        self._stage = StageAccounting(
            start=now, source=source,
            disk_energy0=self.env.disk.energy(now),
            wnic_energy0=self.env.wnic.energy(now))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, now: Seconds) -> None:
        source = self._decide_from_profile(now, reason="initial")
        self._begin_stage(now, source)

    # ------------------------------------------------------------------
    # stage audit (§2.3.1 second half)
    # ------------------------------------------------------------------
    def _external_keepalive(self, now: Seconds) -> bool:
        """Is something else keeping the disk spun up (§2.3.3)?"""
        if not self.config.feature("free_rider"):
            return False
        assert self.env is not None
        timeout = self.env.disk.spec.spindown_timeout
        t = self._external_times
        return (len(t) >= 2
                and (t[-1] - t[-2]) < timeout
                and (now - t[-1]) < timeout)

    def _audit_stage(self, now: Seconds) -> None:
        """Compare measured stage energy against the alternative."""
        assert self.env is not None and self._stage is not None
        stage = self._stage
        chosen = stage.source
        if chosen is DataSource.DISK:
            measured = self.env.disk.energy(now) - stage.disk_energy0
        else:
            measured = self.env.wnic.energy(now) - stage.wnic_energy0
        # Cross-device energy spent recovering the chosen source's
        # requests (mid-stage failovers) is part of what that choice
        # cost, so the next stage's decision learns from the failure.
        measured += stage.cross_energy[chosen]
        outcome = audit_stage(
            self.env.cost_model, stage, now, measured=measured,
            burst_threshold=self.config.burst_threshold,
            hysteresis=self.config.switch_hysteresis,
            disk_kept_spinning=(chosen.other is DataSource.DISK
                                and self._external_keepalive(now)))
        if outcome is None:
            return
        self.audit_log.append((now, outcome.measured,
                               outcome.counterfactual, chosen))
        self.audit_override = outcome.override
        self.profile_trusted = outcome.profile_trusted

    # ------------------------------------------------------------------
    # runtime hooks
    # ------------------------------------------------------------------
    def on_tick(self, now: Seconds) -> None:
        if self._stage is None:
            self._begin_stage(now, self.current_source)
            return
        if now - self._stage.start < self.config.stage_length:
            return
        # Stage boundary: audit, then decide the next stage.
        if self.config.feature("stage_audit"):
            self._audit_stage(now)
        if self.audit_override is not None and not self.profile_trusted:
            source = self.audit_override
            self.decision_log.append((now, source, "audit-override"))
        else:
            source = self._decide_from_profile(now, reason="stage")
        self._begin_stage(now, source)

    def choose(self, ctx: RequestContext) -> DataSource:
        source = self.current_source
        if (source is DataSource.NETWORK
                and self._external_keepalive(ctx.now)):
            self.free_rides += 1
            return DataSource.DISK
        return source

    def on_serviced(self, ctx: RequestContext, source: DataSource,
                    result: Any) -> None:
        """Device-level observation: feeds the stage audit's replay."""
        if not ctx.profiled or not self._records_stage \
                or self._stage is None:
            return
        start = float(getattr(result, "arrival", ctx.now))
        end = float(getattr(result, "completion", ctx.now))
        req = ProfiledRequest(inode=ctx.inode, offset=ctx.offset,
                              size=max(1, ctx.nbytes), op=ctx.op)
        self._stage.observe(req, start, end)

    def on_syscall(self, ctx: RequestContext, start: float,
                   end: float) -> None:
        """Demand-level observation: profile position, burst boundaries.

        Tracking system calls (not device transfers) keeps the byte
        position aligned with the old profile, which also counts
        syscall bytes — readahead overshoot and cache absorption would
        otherwise drift the position off the profile's burst grid.
        """
        closed = self.tracker.observe(ctx.nbytes, start, end)
        # §2.3.1: re-evaluate "whenever the amount just exceeds the
        # amount of data requested in the first N I/O bursts" of the old
        # profile — i.e. on crossing an old-profile burst boundary — and
        # also when an observed burst closes (fresh think-time evidence).
        boundary = self.profile.burst_index_for_bytes(
            self.tracker.total_bytes)
        crossed = boundary > self._boundary_seen
        self._boundary_seen = max(self._boundary_seen, boundary)
        due = end - self._last_reevaluation \
            >= self.config.reevaluation_min_interval
        if (closed or crossed) and due \
                and self.config.feature("splice_reevaluation") \
                and self.profile_trusted:
            self._last_reevaluation = end
            new_source = self._decide_from_profile(end, reason="splice")
            if new_source != self.current_source:
                self.splice_flips += 1
                self.current_source = new_source

    def on_external_disk_request(self, now: Seconds) -> None:
        self._external_times.append(now)

    # -- fault-injection hooks ---------------------------------------------
    def on_fault(self, now: Seconds, intended: DataSource,
                 cross_energy: Joules, attempts: int) -> None:
        """Charge fault-recovery waste to the stage audit (§2.3.1)."""
        if self._stage is not None and cross_energy > 0.0:
            self._stage.cross_energy[intended] += cross_energy

    def on_failover(self, now: Seconds, source: DataSource,
                    fallback: DataSource) -> None:
        """Mid-stage failover: follow the simulator onto the fallback
        device so subsequent requests don't keep hitting the failed one
        (the stage-end audit then re-decides with the waste priced in).
        """
        self.fault_failovers += 1
        if self.current_source is source:
            self.current_source = fallback
        self.decision_log.append((now, fallback, "fault-failover"))
