"""Bitwise parity of the packed burst-cost kernel.

``_replay_requests`` dispatching to the packed columns must reproduce
``_replay_object`` (a clone-driven replay of the same requests)
*exactly*, field for field, bit for bit.

Hypothesis drives the pair over randomized stages *and* randomized
device specs, sampling the edges the specs accept rather than only the
Table 1/2 values: zero-byte requests, a zero-latency link, bandwidths
from a few bytes to a terabyte per second, DPM timeouts short enough
to fire inside a stage, and stage start times up to 1e6 s.  Any drift —
a reordered float reduction, a fused multiply, an off-by-one block
placement, a missed DPM deadline — shows up as an exact-inequality
counterexample.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.burst import ProfiledRequest
from repro.core.costmodel import _replay_object, _replay_requests
from repro.core.decision import DataSource
from repro.devices.disk import HardDisk
from repro.devices.layout import DiskLayout
from repro.devices.specs import AIRONET_350, HITACHI_DK23DA
from repro.devices.wnic import WirelessNic
from repro.traces.record import OpType

INODES = (1, 2, 3)
#: an inode the layout does not know (exercises the average-seek path).
UNPLACED_INODE = 99


def _make_request(inode: int, offset: int, size: int,
                  op: OpType) -> ProfiledRequest:
    """A profiled request, zero bytes long when ``size`` is 0.

    ``ProfiledRequest`` rejects size 0 at construction, but the cost
    kernel's own guard admits any size >= 0 (a zero-byte transfer takes
    zero seconds on both devices), so that edge is drawn by shrinking a
    valid request after construction.
    """
    req = ProfiledRequest(inode=inode, offset=offset, size=max(size, 1),
                          op=op)
    if size == 0:
        object.__setattr__(req, "size", 0)
    return req


_request = st.builds(
    _make_request,
    inode=st.sampled_from(INODES + (UNPLACED_INODE,)),
    offset=st.integers(0, 1 << 13).map(lambda v: v * 512),
    size=st.one_of(st.sampled_from([0, 1]), st.integers(1, 1 << 20)),
    op=st.sampled_from([OpType.READ, OpType.WRITE]))

_stage = st.lists(st.lists(_request, max_size=5), min_size=1, max_size=5)

_think = st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False)
_now = st.one_of(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))

#: a few B/s up to ~1 TB/s, log-uniform plus both extremes.
_bandwidth = st.one_of(
    st.sampled_from([2.0, 1e12]),
    st.floats(0.3, 12.0).map(lambda exp: 10.0 ** exp))
#: the stock timeout, or one short enough to fire between requests.
_short_timeout = st.floats(1e-3, 1.0)

_disk_spec = st.builds(
    lambda bw, timeout: replace(HITACHI_DK23DA, bandwidth_bps=bw,
                                spindown_timeout=timeout),
    _bandwidth,
    st.one_of(st.just(HITACHI_DK23DA.spindown_timeout), _short_timeout))

_wnic_spec = st.builds(
    lambda bw, latency, timeout: replace(AIRONET_350, bandwidth_bps=bw,
                                         latency=latency,
                                         cam_timeout=timeout),
    _bandwidth,
    st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    st.one_of(st.just(AIRONET_350.cam_timeout), _short_timeout))


def _layout() -> DiskLayout:
    layout = DiskLayout(seed=0)
    for inode in INODES:
        layout.add_file(inode, 8 << 20)
    return layout


def _thinks_for(stage, data):
    return data.draw(st.lists(_think, min_size=len(stage),
                              max_size=len(stage)))


def _both(source, device_factory, stage, thinks, *, now, layout,
          other_factory=None, min_duration=None):
    """(packed, object) estimates of one stage on fresh devices."""
    return tuple(
        replay(source, device_factory(), stage, thinks, now=now,
               layout=layout,
               other_device=other_factory() if other_factory else None,
               min_duration=min_duration)
        for replay in (_replay_requests, _replay_object))


class TestPackedVsObject:
    """The packed kernel is a bit-exact clone of the object replay."""

    @settings(max_examples=200, deadline=None)
    @given(stage=_stage, now=_now, spec=_disk_spec, data=st.data())
    def test_disk_stage(self, stage, now, spec, data):
        thinks = _thinks_for(stage, data)
        packed, obj = _both(DataSource.DISK, lambda: HardDisk(spec),
                            stage, thinks, now=now, layout=_layout())
        assert packed == obj

    @settings(max_examples=200, deadline=None)
    @given(stage=_stage, now=_now, spec=_wnic_spec, data=st.data())
    def test_wnic_stage(self, stage, now, spec, data):
        thinks = _thinks_for(stage, data)
        packed, obj = _both(DataSource.NETWORK, lambda: WirelessNic(spec),
                            stage, thinks, now=now, layout=None)
        assert packed == obj

    @settings(max_examples=100, deadline=None)
    @given(stage=_stage, now=_now, disk=_disk_spec, wnic=_wnic_spec,
           min_duration=st.one_of(st.none(), st.floats(0.0, 200.0)),
           data=st.data())
    def test_disk_with_other_device_and_floor(self, stage, now, disk,
                                              wnic, min_duration, data):
        """The other-device baseline and the audit floor ride along."""
        thinks = _thinks_for(stage, data)
        packed, obj = _both(DataSource.DISK, lambda: HardDisk(disk),
                            stage, thinks, now=now, layout=_layout(),
                            other_factory=lambda: WirelessNic(wnic),
                            min_duration=min_duration)
        assert packed == obj

    @settings(max_examples=100, deadline=None)
    @given(stage=_stage, now=_now, disk=_disk_spec, wnic=_wnic_spec,
           min_duration=st.one_of(st.none(), st.floats(0.0, 200.0)),
           data=st.data())
    def test_wnic_with_other_device_and_floor(self, stage, now, disk,
                                              wnic, min_duration, data):
        """The disk rides along as the idle other device."""
        thinks = _thinks_for(stage, data)
        packed, obj = _both(DataSource.NETWORK, lambda: WirelessNic(wnic),
                            stage, thinks, now=now, layout=None,
                            other_factory=lambda: HardDisk(disk),
                            min_duration=min_duration)
        assert packed == obj
