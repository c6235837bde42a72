"""Tables 1 and 2: the spec constants must match the paper exactly."""

import dataclasses

import pytest

from repro.devices.specs import (
    AIRONET_350,
    HITACHI_DK23DA,
    WNIC_RATES_BPS,
)
from repro.sim.clock import GB


class TestTable1:
    """Paper Table 1 — Hitachi DK23DA."""

    def test_power_states(self):
        assert HITACHI_DK23DA.active_power == 2.0
        assert HITACHI_DK23DA.idle_power == 1.6
        assert HITACHI_DK23DA.standby_power == 0.15

    def test_transition_costs(self):
        assert HITACHI_DK23DA.spinup_energy == 5.0
        assert HITACHI_DK23DA.spindown_energy == 2.94
        assert HITACHI_DK23DA.spinup_time == 1.6
        assert HITACHI_DK23DA.spindown_time == 2.3

    def test_geometry(self):
        # §3.1: 30 GB, 35 MB/s peak, 13 ms seek, 7 ms rotation.
        assert HITACHI_DK23DA.capacity_bytes == 30 * GB
        assert HITACHI_DK23DA.bandwidth_bps == pytest.approx(35e6)
        assert HITACHI_DK23DA.avg_seek_time == pytest.approx(13e-3)
        assert HITACHI_DK23DA.avg_rotation_time == pytest.approx(7e-3)

    def test_access_time_is_burst_threshold(self):
        assert HITACHI_DK23DA.access_time == pytest.approx(20e-3)

    def test_spindown_timeout_is_laptop_mode_default(self):
        assert HITACHI_DK23DA.spindown_timeout == 20.0

    def test_breakeven_time(self):
        # (5 + 2.94) J / (1.6 - 0.15) W ~ 5.48 s — the §1.1 quantity.
        assert HITACHI_DK23DA.breakeven_time == pytest.approx(
            7.94 / 1.45, rel=1e-6)


class TestTable2:
    """Paper Table 2 — Cisco Aironet 350."""

    def test_psm_powers(self):
        assert AIRONET_350.psm_idle_power == 0.39
        assert AIRONET_350.psm_recv_power == 1.42
        assert AIRONET_350.psm_send_power == 2.48

    def test_cam_powers(self):
        assert AIRONET_350.cam_idle_power == 1.41
        assert AIRONET_350.cam_recv_power == 2.61
        assert AIRONET_350.cam_send_power == 3.69

    def test_mode_switch_costs(self):
        assert AIRONET_350.cam_to_psm_time == 0.41
        assert AIRONET_350.cam_to_psm_energy == 0.53
        assert AIRONET_350.psm_to_cam_time == 0.40
        assert AIRONET_350.psm_to_cam_energy == 0.51

    def test_mode_switch_cheaper_than_disk_spin(self):
        # §1.1's key observation.
        assert AIRONET_350.cam_to_psm_energy < HITACHI_DK23DA.spindown_energy
        assert AIRONET_350.cam_to_psm_time < HITACHI_DK23DA.spindown_time

    def test_default_link(self):
        assert AIRONET_350.bandwidth_bps == pytest.approx(11e6 / 8)
        assert AIRONET_350.cam_timeout == pytest.approx(0.8)

    def test_802_11b_rates(self):
        assert [r * 8 / 1e6 for r in WNIC_RATES_BPS] == \
            pytest.approx([1.0, 2.0, 5.5, 11.0])


class TestValidation:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HITACHI_DK23DA, idle_power=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HITACHI_DK23DA, bandwidth_bps=0.0)

    def test_zero_timeout_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HITACHI_DK23DA, spindown_timeout=0.0)

    def test_wnic_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            AIRONET_350.with_link(latency=-1e-3)


def _numeric_fields(spec):
    """Every int or float field, plus ``sleep_timeout`` (None here)."""
    names = []
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if f.name == "sleep_timeout" or (
                isinstance(value, (int, float))
                and not isinstance(value, bool)):
            names.append(f.name)
    return names


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRejected:
    """NaN and ±inf fail every numeric field, not only the signed
    checks: ``nan < 0`` is False and inf is positive."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", _numeric_fields(HITACHI_DK23DA))
    def test_disk_spec(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(HITACHI_DK23DA, **{field: value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize("field", _numeric_fields(AIRONET_350))
    def test_wnic_spec(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(AIRONET_350, **{field: value})

    def test_field_lists_cover_the_specs(self):
        assert len(_numeric_fields(HITACHI_DK23DA)) == 17
        assert len(_numeric_fields(AIRONET_350)) == 16

    def test_sleep_timeout_none_still_accepted(self):
        assert HITACHI_DK23DA.with_sleep(None).sleep_timeout is None


class TestDerivation:
    def test_with_timeout(self):
        spec = HITACHI_DK23DA.with_timeout(5.0)
        assert spec.spindown_timeout == 5.0
        assert spec.active_power == HITACHI_DK23DA.active_power

    def test_with_link_partial(self):
        spec = AIRONET_350.with_link(latency=10e-3)
        assert spec.latency == pytest.approx(10e-3)
        assert spec.bandwidth_bps == AIRONET_350.bandwidth_bps

    def test_with_link_both(self):
        spec = AIRONET_350.with_link(latency=2e-3, bandwidth_bps=250e3)
        assert spec.latency == pytest.approx(2e-3)
        assert spec.bandwidth_bps == pytest.approx(250e3)

    def test_breakeven_infinite_when_standby_not_cheaper(self):
        spec = dataclasses.replace(HITACHI_DK23DA, standby_power=1.6)
        assert spec.breakeven_time == float("inf")
