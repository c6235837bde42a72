"""Tests for the named scenario registry."""

import pytest

from repro.core.session import SimulationSession
from repro.core.flexfetch import FlexFetchPolicy
from repro.traces.synth.scenarios import SCENARIOS, build_scenario


class TestRegistry:
    def test_all_paper_scenarios_present(self):
        assert {"grep+make", "mplayer", "thunderbird",
                "grep+make+xmms", "acroread-stale"} <= set(SCENARIOS)

    def test_all_single_apps_present(self):
        assert {"grep", "make", "xmms", "mplayer", "thunderbird",
                "acroread"} <= set(SCENARIOS)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("nope")


class TestScenarioShape:
    def test_single_scenario(self):
        s = build_scenario("mplayer", seed=3)
        assert s.name == "mplayer"
        assert len(s.programs) == 1
        assert s.programs[0].profiled
        assert s.profile.total_bytes > 0
        assert s.foreground is s.programs[0]

    def test_forced_spinup_scenario(self):
        s = build_scenario("grep+make+xmms", seed=3)
        assert len(s.programs) == 2
        fg, bg = s.programs
        assert fg.profiled and not fg.disk_pinned
        assert not bg.profiled and bg.disk_pinned
        assert s.foreground is fg
        # the profile covers only the foreground
        fg_bytes = sum(r.size for r in fg.trace.data_records())
        assert s.profile.total_bytes == pytest.approx(fg_bytes, rel=0.01)

    def test_stale_profile_scenario(self):
        s = build_scenario("acroread-stale", seed=3)
        run_bytes = sum(r.size for r in
                        s.programs[0].trace.data_records())
        # the recorded profile is an order of magnitude smaller than
        # the run it will (mis)guide.
        assert s.profile.total_bytes < run_bytes / 5

    def test_determinism(self):
        a = build_scenario("grep+make", seed=9)
        b = build_scenario("grep+make", seed=9)
        assert a.programs[0].trace.records == b.programs[0].trace.records

    @pytest.mark.parametrize("name", ["xmms", "acroread-stale"])
    def test_scenarios_are_replayable(self, name):
        s = build_scenario(name, seed=3)
        result = SimulationSession(list(s.programs),
                                   FlexFetchPolicy(s.profile),
                                   seed=3).run()
        assert result.total_energy > 0
