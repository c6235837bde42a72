"""Unit tests for the deterministic fault schedule."""

from dataclasses import fields

import pytest

from repro.faults.schedule import (
    FALLBACK_RATES_BPS,
    FaultSchedule,
    FaultSpec,
    FaultSpecError,
    RateWindow,
)


class TestFaultSpec:
    def test_default_is_inert(self):
        spec = FaultSpec()
        assert not spec.enabled

    def test_any_rate_enables(self):
        assert FaultSpec(outage_rate=0.01).enabled
        assert FaultSpec(rate_flap_rate=0.01).enabled
        assert FaultSpec(spinup_fail_prob=0.1).enabled

    @pytest.mark.parametrize("kwargs", [
        {"outage_rate": -1.0},
        {"outage_mean": 0.0},
        {"spinup_fail_prob": 1.0},
        {"spinup_fail_prob": -0.1},
        {"network_retries": -1},
        {"network_timeout": 0.0},
        {"max_consecutive_spinup_failures": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(FaultSpecError):
            FaultSpec(**kwargs)


#: every float knob of FaultSpec, read off the dataclass so a new one is
#: covered without editing this list.
FLOAT_FIELDS = [f.name for f in fields(FaultSpec)
                if isinstance(f.default, float)]
NON_FINITE = ["nan", "inf", "-inf"]


class TestFaultSpecFinite:
    """NaN passes every range check and inf the lower bounds; an
    infinite horizon would draw outage windows forever.  Specs are only
    constructed here, never scheduled."""

    def test_float_fields_found(self):
        assert {"horizon", "network_timeout", "retry_backoff",
                "outage_mean"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_constructor_rejects(self, name, value):
        with pytest.raises(FaultSpecError, match=name):
            FaultSpec(**{name: float(value)})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_parse_rejects(self, name, value):
        with pytest.raises(FaultSpecError, match=name):
            FaultSpec.parse(f"{name.replace('_', '-')}={value}")

    def test_infinite_horizon_with_outages_rejected(self):
        with pytest.raises(FaultSpecError, match="horizon"):
            FaultSpec.parse("horizon=inf,outage-rate=0.01")


class TestFaultSpecParse:
    def test_parse_round_trip(self):
        spec = FaultSpec.parse(
            "outage-rate=0.01,outage-mean=15,network_retries=3")
        assert spec.outage_rate == 0.01
        assert spec.outage_mean == 15.0
        assert spec.network_retries == 3
        assert isinstance(spec.network_retries, int)

    def test_parse_empty_is_default(self):
        assert FaultSpec.parse("") == FaultSpec()

    def test_unknown_key_names_vocabulary(self):
        with pytest.raises(FaultSpecError, match="outage_rate"):
            FaultSpec.parse("bogus=1")

    def test_missing_equals_rejected(self):
        with pytest.raises(FaultSpecError, match="key=value"):
            FaultSpec.parse("outage-rate")

    def test_bad_value_rejected(self):
        with pytest.raises(FaultSpecError, match="outage_rate"):
            FaultSpec.parse("outage-rate=fast")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse("spinup-fail-prob=2.0")


class TestScheduleGeneration:
    def test_deterministic_in_seed(self):
        spec = FaultSpec(outage_rate=0.01, rate_flap_rate=0.005,
                         spinup_fail_prob=0.3)
        a = FaultSchedule(spec, seed=42)
        b = FaultSchedule(spec, seed=42)
        assert a.outages == b.outages
        assert a.rate_windows == b.rate_windows
        assert a._spinup_failures == b._spinup_failures

    def test_seed_changes_timeline(self):
        spec = FaultSpec(outage_rate=0.05)
        a = FaultSchedule(spec, seed=1)
        b = FaultSchedule(spec, seed=2)
        assert a.outages != b.outages

    def test_outages_sorted_and_disjoint(self):
        spec = FaultSpec(outage_rate=0.1, outage_mean=10.0)
        sched = FaultSchedule(spec, seed=3)
        assert sched.outages
        for (a0, a1), (b0, _b1) in zip(sched.outages, sched.outages[1:], strict=False):
            assert a0 < a1 <= b0

    def test_rate_windows_use_fallback_rates(self):
        spec = FaultSpec(rate_flap_rate=0.05)
        sched = FaultSchedule(spec, seed=3)
        assert sched.rate_windows
        for window in sched.rate_windows:
            assert window.rate_bps in FALLBACK_RATES_BPS

    def test_consecutive_spinup_failures_capped(self):
        spec = FaultSpec(spinup_fail_prob=0.95,
                         max_consecutive_spinup_failures=3)
        sched = FaultSchedule(spec, seed=9)
        run = longest = 0
        for fail in sched._spinup_failures:
            run = run + 1 if fail else 0
            longest = max(longest, run)
        assert 0 < longest <= 3

    def test_inert_spec_yields_disabled_schedule(self):
        sched = FaultSchedule(FaultSpec(), seed=7)
        assert not sched.enabled
        assert not sched.affects_network
        assert not sched.affects_disk


class TestScheduleQueries:
    def make(self, **kwargs):
        return FaultSchedule(FaultSpec(), seed=0, **kwargs)

    def test_link_available_half_open(self):
        sched = self.make(outages=[(10.0, 20.0)])
        assert sched.link_available(9.999)
        assert not sched.link_available(10.0)
        assert not sched.link_available(19.999)
        assert sched.link_available(20.0)

    def test_outage_end(self):
        sched = self.make(outages=[(10.0, 20.0)])
        assert sched.outage_end(15.0) == 20.0
        assert sched.outage_end(5.0) == 5.0

    def test_outage_start_within(self):
        sched = self.make(outages=[(10.0, 20.0), (50.0, 60.0)])
        assert sched.outage_start_within(0.0, 5.0) is None
        assert sched.outage_start_within(0.0, 15.0) == 10.0
        assert sched.outage_start_within(30.0, 55.0) == 50.0
        assert sched.outage_start_within(10.0, 12.0) == 10.0

    def test_network_bandwidth_capped_in_window(self):
        sched = self.make(rate_windows=[RateWindow(10.0, 20.0, 1e6)])
        assert sched.network_bandwidth(5.0, 11e6) == 11e6
        assert sched.network_bandwidth(15.0, 11e6) == 1e6
        # A window never raises the rate above nominal.
        assert sched.network_bandwidth(15.0, 0.5e6) == 0.5e6

    def test_spinup_cursor_and_copy(self):
        sched = self.make(spinup_failures=[True, False, True])
        assert sched.next_spinup_fails() is True
        assert sched.next_spinup_fails() is False
        rewound = sched.copy()
        assert sched.next_spinup_fails() is True
        assert sched.next_spinup_fails() is False  # exhausted
        assert rewound.next_spinup_fails() is True  # cursor rewound

    def test_bad_explicit_outage_rejected(self):
        with pytest.raises(FaultSpecError):
            self.make(outages=[(10.0, 10.0)])
