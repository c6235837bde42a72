"""Golden parity: the layered session reproduces pre-refactor results.

``benchmarks/results/golden.json`` pins the :class:`RunResult` numbers
produced by the monolithic replay simulator *before* the layered
decomposition (workload/kernel/device/routing/telemetry behind
:class:`~repro.core.session.SimulationSession`).  The refactor was
required to be behaviour-preserving — same seeds, same results — so a
fresh session must land on the pinned numbers within ``approx_eq``.

FlexFetch's energies alone could survive a change that moves its
decisions around, so the same cells also pin a sha256 of every
FlexFetch and FlexFetch-static ``decision_log`` and ``audit_log``
(:data:`DECISION_DIGESTS`): a change to how the policy positions itself
in its profile must leave every decision, its time and its reason
bit-identical.

Regenerate the pins (only after an *intentional* behaviour change)::

    PYTHONPATH=src python benchmarks/pin_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.flexfetch import FlexFetchPolicy
from repro.core.oracle import ClairvoyantStagePolicy
from repro.core.policies import DiskOnlyPolicy, WnicOnlyPolicy
from repro.core.profile import profile_from_trace
from repro.core.session import SimulationSession
from repro.core.workload import ProgramSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import _standard_policies
from repro.experiments.runner import run_point
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)
from repro.units import approx_eq

GOLDEN_PATH = (Path(__file__).parent.parent / "benchmarks" / "results"
               / "golden.json")

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")

#: fig id -> policy name -> :func:`decision_digest` of its default-link
#: cell.  ``pin_golden.py`` does not write these: after an intentional
#: decision change, paste the digests the failing assertion prints.
DECISION_DIGESTS: dict[str, dict[str, str]] = {
    "fig1": {
        "FlexFetch":
            "b941ec229542bdf7ca9f1d557d8eb4271a3ab65bd7ee70cbb43fe36a93da4503",
    },
    "fig2": {
        "FlexFetch":
            "c05fda5e89d136ed332ca00219b98079faf0a397f955b3f55c948af619117abb",
    },
    "fig3": {
        "FlexFetch":
            "071512f28623fd8d10791db7ca68d27aa2da766afd8ce6a8235bdcef57a4ff69",
    },
    "fig4": {
        "FlexFetch-static":
            "50e376c55448fa9afe050446db67dca7a8beb4d09c47b1565723bc7b9c1c6aff",
        "FlexFetch":
            "00c7c47d2db626bc8c7c68eeac50da79df62e95646d44673b7b8a5ed7706a917",
    },
    "fig5": {
        "FlexFetch-static":
            "bcb49680f3e579971cf68b3dce3a333fa290c2dd92bd90891fa227dd97940b65",
        "FlexFetch":
            "b8227be71714a0e1c7b8efcdc444ed939aaeefd6718c386650bd0e4d08998374",
    },
}


def decision_digest(policy: FlexFetchPolicy) -> str:
    """sha256 over a FlexFetch run's decision and audit logs, exactly."""
    h = hashlib.sha256()
    for t, source, reason in policy.decision_log:
        h.update(f"d {float(t).hex()} {source.value} {reason}\n".encode())
    for t, measured, counterfactual, chosen in policy.audit_log:
        h.update(f"a {float(t).hex()} {float(measured).hex()}"
                 f" {float(counterfactual).hex()} {chosen.value}\n"
                 .encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="module")
def figure_setups(config):
    """fig id -> (programs factory, policy factories), as pinned."""
    seed = config.seed
    fig1 = generate_grep_make(seed)
    fig2 = generate_mplayer(seed)
    fig3 = generate_thunderbird(seed)
    fg4, bg4 = generate_grep_make_xmms(seed)
    search5 = generate_acroread_search_run(seed)
    stale5 = profile_from_trace(generate_acroread_profile_run(seed))
    return {
        "fig1": (lambda: [ProgramSpec(fig1)],
                 _standard_policies(profile_from_trace(fig1), config)),
        "fig2": (lambda: [ProgramSpec(fig2)],
                 _standard_policies(profile_from_trace(fig2), config)),
        "fig3": (lambda: [ProgramSpec(fig3)],
                 _standard_policies(profile_from_trace(fig3), config)),
        "fig4": (lambda: [ProgramSpec(fg4),
                          ProgramSpec(bg4, profiled=False,
                                      disk_pinned=True)],
                 _standard_policies(profile_from_trace(fg4), config,
                                    include_static=True)),
        "fig5": (lambda: [ProgramSpec(search5)],
                 _standard_policies(stale5, config,
                                    include_static=True)),
    }


@pytest.fixture(scope="module")
def default_link_runs(config, figure_setups):
    """fig id -> policy name -> (policy, RunResult), each cell run once."""
    runs: dict[str, dict[str, tuple]] = {}

    def cells(fig_id):
        if fig_id not in runs:
            programs, policies = figure_setups[fig_id]
            runs[fig_id] = {}
            for name, factory in policies.items():
                built = []

                def keep(factory=factory, built=built):
                    built.append(factory())
                    return built[-1]

                result = run_point(programs, keep, config.wnic_spec,
                                   config).result
                runs[fig_id][name] = (built[0], result)
        return runs[fig_id]

    return cells


def test_golden_file_is_pinned(golden):
    assert set(golden["points"]) == set(FIGURE_IDS)
    assert golden["oracle"]


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_points_match_golden(fig_id, golden, default_link_runs):
    """Every figure's default-link replay lands on the pinned numbers."""
    cells = default_link_runs(fig_id)
    pinned = golden["points"][fig_id]
    assert set(cells) == set(pinned)
    for name, (_policy, result) in cells.items():
        want = pinned[name]
        assert approx_eq(result.total_energy, want["energy"]), \
            f"{fig_id}/{name} energy {result.total_energy} != {want['energy']}"
        assert approx_eq(result.disk_energy, want["disk_energy"])
        assert approx_eq(result.wnic_energy, want["wnic_energy"])
        assert approx_eq(result.end_time, want["time"])


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_flexfetch_decisions_match_pins(fig_id, default_link_runs):
    """FlexFetch's default-link decision and audit logs are bit-exact."""
    cells = default_link_runs(fig_id)
    digests = {name: decision_digest(policy)
               for name, (policy, _result) in cells.items()
               if isinstance(policy, FlexFetchPolicy)}
    assert digests == DECISION_DIGESTS[fig_id]


@pytest.mark.parametrize("workload,gen", [
    ("grep+make", generate_grep_make),
    ("mplayer", generate_mplayer),
    ("thunderbird", generate_thunderbird),
])
def test_oracle_matches_golden(workload, gen, golden):
    """Clairvoyant-headroom energies land on the pinned numbers."""
    seed = golden["oracle_seed"]
    trace = gen(seed)
    runs = {
        "Disk-only": DiskOnlyPolicy(),
        "WNIC-only": WnicOnlyPolicy(),
        "FlexFetch": FlexFetchPolicy(profile_from_trace(trace)),
        "Clairvoyant": ClairvoyantStagePolicy(trace),
    }
    pinned = golden["oracle"][workload]
    assert set(runs) == set(pinned)
    for label, policy in runs.items():
        result = SimulationSession([ProgramSpec(trace)], policy,
                                   seed=seed).run()
        assert approx_eq(result.total_energy, pinned[label]), \
            f"{workload}/{label}: {result.total_energy} != {pinned[label]}"
