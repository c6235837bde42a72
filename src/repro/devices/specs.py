"""Device parameter records.

The constants here are the paper's Tables 1 and 2 plus the performance
figures quoted in §3.1 (disk geometry/bandwidth, WNIC rates and DPM
timeouts).  Everything downstream — the replay simulator, FlexFetch's
online estimators, and the BlueFS cost model — reads parameters from these
frozen dataclasses, so an experiment can swap in a different disk or NIC
by constructing a new spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.clock import GB, MBps, Mbps
from repro.units import (
    Bytes,
    BytesPerSecond,
    Joules,
    Seconds,
    Watts,
    require_finite_fields,
)


@dataclass(frozen=True, slots=True)
class DiskSpec:
    """Hard-disk parameters (paper Table 1 + §3.1 geometry).

    Attributes
    ----------
    active_power / idle_power / standby_power:
        Watts drawn while transferring / spinning idle / spun down.
    spinup_energy, spinup_time:
        Cost to go standby -> active.
    spindown_energy, spindown_time:
        Cost to go idle -> standby.
    avg_seek_time, avg_rotation_time:
        Mean head-positioning components; their sum is the paper's
        "disk access time" and is also FlexFetch's I/O-burst threshold.
    track_to_track_time:
        Short-seek cost for hops within a cylinder group; this is what
        makes a near-sequential scan over many small files (grep over a
        freshly laid-out tree, §3.3.1) cheap on the disk.
    bandwidth_bps:
        Peak media transfer rate in bytes/second.
    spindown_timeout:
        Idle seconds before the DPM policy spins the disk down
        (Linux laptop-mode default, §3.1).
    capacity_bytes:
        Total addressable capacity; bounds the disk layout.
    """

    name: str
    active_power: Watts
    idle_power: Watts
    standby_power: Watts
    spinup_energy: Joules
    spinup_time: Seconds
    spindown_energy: Joules
    spindown_time: Seconds
    avg_seek_time: Seconds
    avg_rotation_time: Seconds
    track_to_track_time: Seconds
    bandwidth_bps: BytesPerSecond
    spindown_timeout: Seconds
    capacity_bytes: Bytes
    #: optional fourth state (§1.1): all remaining electronics off; a
    #: hard reset is needed to reactivate.  ``sleep_timeout`` is the
    #: standby dwell before dropping to sleep (None = never, as in the
    #: paper's experiments).
    sleep_power: Watts = 0.02
    sleep_timeout: float | None = None
    wake_time: Seconds = 3.2
    wake_energy: Joules = 7.5

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for field_name in ("active_power", "idle_power", "standby_power",
                           "spinup_energy", "spinup_time", "spindown_energy",
                           "spindown_time", "avg_seek_time",
                           "avg_rotation_time", "track_to_track_time",
                           "sleep_power", "wake_time", "wake_energy"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} cannot be negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.spindown_timeout <= 0:
            raise ValueError("spin-down timeout must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if self.sleep_timeout is not None and self.sleep_timeout <= 0:
            raise ValueError("sleep timeout must be positive or None")

    @property
    def access_time(self) -> Seconds:
        """Average time to the first byte of a random request (seek+rot)."""
        return self.avg_seek_time + self.avg_rotation_time

    @property
    def breakeven_time(self) -> Seconds:
        """Minimum quiet period for a spin-down to pay off (§1.1).

        Solves ``standby_power * t + spindown_energy + spinup_energy
        = idle_power * t`` for ``t``: shorter quiet periods than this make
        spinning down a net energy loss.
        """
        saved_per_second = self.idle_power - self.standby_power
        if saved_per_second <= 0:
            return float("inf")
        cost = self.spindown_energy + self.spinup_energy
        return cost / saved_per_second

    def with_timeout(self, timeout: Seconds) -> DiskSpec:
        """Copy of this spec with a different spin-down timeout."""
        return replace(self, spindown_timeout=timeout)

    def with_sleep(self, timeout: float | None) -> DiskSpec:
        """Copy with the sleep state enabled after ``timeout`` seconds
        of standby (None disables it)."""
        return replace(self, sleep_timeout=timeout)


@dataclass(frozen=True, slots=True)
class WnicSpec:
    """Wireless NIC parameters (paper Table 2 + §3.1).

    Power figures are per (mode, activity); ``cam_timeout`` is the idle
    period after which the adaptive DPM drops from CAM to PSM (800 ms for
    the Aironet 350).  ``bandwidth_bps`` and ``latency`` describe the
    *link to the remote storage server*, the access bottleneck per §2.1;
    experiments sweep both.
    """

    name: str
    psm_idle_power: Watts
    psm_recv_power: Watts
    psm_send_power: Watts
    cam_idle_power: Watts
    cam_recv_power: Watts
    cam_send_power: Watts
    cam_to_psm_time: Seconds
    cam_to_psm_energy: Joules
    psm_to_cam_time: Seconds
    psm_to_cam_energy: Joules
    cam_timeout: Seconds
    bandwidth_bps: BytesPerSecond
    latency: float
    #: §1.1: "Data transmission can be carried out in both CAM and PSM,
    #: but with different latencies and bandwidths."  When enabled,
    #: requests of at most ``psm_transfer_max_bytes`` are serviced
    #: without leaving PSM, at ``psm_bandwidth_factor`` of the link rate
    #: and with up to one ``beacon_interval`` of extra latency (the card
    #: only talks to the AP at beacon wake-ups).  Off by default — the
    #: paper's experiments use the CAM-transfer model.
    psm_transfer_enabled: bool = False
    psm_transfer_max_bytes: Bytes = 16 * 1024
    psm_bandwidth_factor: float = 0.5
    beacon_interval: float = 0.1

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for field_name in ("psm_idle_power", "psm_recv_power",
                           "psm_send_power", "cam_idle_power",
                           "cam_recv_power", "cam_send_power",
                           "cam_to_psm_time", "cam_to_psm_energy",
                           "psm_to_cam_time", "psm_to_cam_energy",
                           "latency"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} cannot be negative")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.cam_timeout <= 0:
            raise ValueError("CAM timeout must be positive")
        if not 0.0 < self.psm_bandwidth_factor <= 1.0:
            raise ValueError("psm_bandwidth_factor must be in (0, 1]")
        if self.psm_transfer_max_bytes < 0:
            raise ValueError("psm_transfer_max_bytes cannot be negative")
        if self.beacon_interval <= 0:
            raise ValueError("beacon interval must be positive")

    def with_psm_transfers(self, enabled: bool = True) -> WnicSpec:
        """Copy with PSM-mode data transfers toggled."""
        return replace(self, psm_transfer_enabled=enabled)

    def with_link(self, *, bandwidth_bps: float | None = None,
                  latency: float | None = None) -> WnicSpec:
        """Copy with a different link bandwidth and/or latency.

        This is the knob the paper's figures sweep: latency 0-20 ms at
        11 Mbps, and the four 802.11b rates at 1 ms.
        """
        kwargs: dict[str, float] = {}
        if bandwidth_bps is not None:
            kwargs["bandwidth_bps"] = bandwidth_bps
        if latency is not None:
            kwargs["latency"] = latency
        return replace(self, **kwargs)


#: Paper Table 1 / §3.1 — the simulated laptop disk.
HITACHI_DK23DA = DiskSpec(
    name="Hitachi DK23DA",
    active_power=2.0,
    idle_power=1.6,
    standby_power=0.15,
    spinup_energy=5.0,
    spinup_time=1.6,
    spindown_energy=2.94,
    spindown_time=2.3,
    avg_seek_time=13e-3,
    avg_rotation_time=7e-3,
    track_to_track_time=1.5e-3,
    bandwidth_bps=MBps(35.0),
    spindown_timeout=20.0,
    capacity_bytes=30 * GB,
)

#: Paper Table 2 / §3.1 — the simulated 802.11b card.
AIRONET_350 = WnicSpec(
    name="Cisco Aironet 350",
    psm_idle_power=0.39,
    psm_recv_power=1.42,
    psm_send_power=2.48,
    cam_idle_power=1.41,
    cam_recv_power=2.61,
    cam_send_power=3.69,
    cam_to_psm_time=0.41,
    cam_to_psm_energy=0.53,
    psm_to_cam_time=0.40,
    psm_to_cam_energy=0.51,
    cam_timeout=0.8,
    bandwidth_bps=Mbps(11.0),
    latency=1e-3,
)

#: The four 802.11b PHY rates (§3.3), in bytes/second, ascending.
WNIC_RATES_BPS: tuple[float, ...] = (
    Mbps(1.0), Mbps(2.0), Mbps(5.5), Mbps(11.0))
