"""The benchmark's three workloads, their set-up and their checks.

All three are closed loops with one caller: the next sweep (or cell)
starts only when the previous one has returned.

``fastpath-sweep``
    Serial ``run_sweep`` over the reduced grids of the three
    single-program, all-read scenarios (fig2 mplayer, fig3 thunderbird,
    fig5 acroread with its stale profile): 117 cells that all take the
    BurstPlan fast path, so ``sim.engine`` and ``kernel`` are bypassed.
    About a quarter of its cells repeat an earlier cell of the same
    policy bit-for-bit.
``eventloop-mixed``
    Serial replays at the paper's default link (11 Mbps, 1 ms) of the
    two scenarios the fast path refuses: fig1 grep+make (writes) and
    fig4 grep+make with a disk-pinned xmms beside it (two programs).
    9 cells, all pinned in ``golden.json``; the plan cursor is bypassed
    and no cell repeats another.
``sweep-orchestration``
    ``ParallelSweepExecutor`` as ``flexfetch sweep`` builds it (run
    cache on, 2 retries, one worker per CPU) over the fig3 and fig2
    reduced grids: a cold sweep into an empty cache, then warm sweeps
    served from it by fresh executors and caches, as new CLI calls
    would be.  The only workload that forks, pickles and touches the
    run cache.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostref import HostTimer, Interval

from repro.core.profile import profile_from_trace
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.devices.specs import WnicSpec
from repro.experiments.cache import RunCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import _standard_policies
from repro.experiments.parallel import ParallelSweepExecutor, is_placeholder
from repro.experiments.runner import PolicyFactory, ProgramSet, run_sweep
from repro.experiments.supervisor import RetryPolicy
from repro.sim.plan import plan_for
from repro.traces.synth import (
    generate_acroread_profile_run,
    generate_acroread_search_run,
    generate_grep_make,
    generate_grep_make_xmms,
    generate_mplayer,
    generate_thunderbird,
)

#: The reduced grids the figure benchmarks and ``golden.json`` use.
REDUCED_LATENCIES = (0.0, 5e-3, 10e-3, 20e-3, 40e-3)
REDUCED_BANDWIDTHS = tuple(mb * 1e6 / 8 for mb in (1.0, 2.0, 5.5, 11.0))

#: Warm sweeps per orchestration pass.  One warm sweep of both grids
#: takes tens of milliseconds, so several are timed per pass.
WARM_SWEEPS = 12


def config_for(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, latency_sweep=REDUCED_LATENCIES,
                            bandwidth_sweep_bps=REDUCED_BANDWIDTHS)


def reduced_grid(config: ExperimentConfig) -> list[WnicSpec]:
    return config.latency_points() + config.bandwidth_points()


def default_link(config: ExperimentConfig) -> list[WnicSpec]:
    return [config.wnic_spec]


# ----------------------------------------------------------------------
# set-up: trace synthesis, compile, profile, burst plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    figure: str
    programs: ProgramSet
    policies: dict[str, PolicyFactory]


def _single_program(figure: str, trace: Any, profile: Any,
                    config: ExperimentConfig, *,
                    include_static: bool = False) -> Scenario:
    spec = ProgramSpec(trace).prepared()
    # What ParallelSweepExecutor does parent-side for single-program
    # sweeps; the serial path would otherwise plan inside the first cell.
    plan_for(spec.compiled, config.memory_bytes, config.seed)
    return Scenario(figure, ProgramSet((spec,)),
                    _standard_policies(profile, config,
                                       include_static=include_static))


def _fig1(config: ExperimentConfig) -> Scenario:
    trace = generate_grep_make(config.seed)
    return _single_program("fig1", trace, profile_from_trace(trace), config)


def _fig2(config: ExperimentConfig) -> Scenario:
    trace = generate_mplayer(config.seed)
    return _single_program("fig2", trace, profile_from_trace(trace), config)


def _fig3(config: ExperimentConfig) -> Scenario:
    trace = generate_thunderbird(config.seed)
    return _single_program("fig3", trace, profile_from_trace(trace), config)


def _fig4(config: ExperimentConfig) -> Scenario:
    fg, bg = generate_grep_make_xmms(config.seed)
    programs = ProgramSet((ProgramSpec(fg).prepared(),
                           ProgramSpec(bg, profiled=False,
                                       disk_pinned=True).prepared()))
    return Scenario("fig4", programs,
                    _standard_policies(profile_from_trace(fg), config,
                                       include_static=True))


def _fig5(config: ExperimentConfig) -> Scenario:
    search = generate_acroread_search_run(config.seed)
    stale = profile_from_trace(generate_acroread_profile_run(config.seed))
    return _single_program("fig5", search, stale, config,
                           include_static=True)


SCENARIOS: dict[str, Callable[[ExperimentConfig], Scenario]] = {
    "fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
    "fig5": _fig5}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
CellKey = tuple[str, str, float, float]


def cell_key(figure: str, policy: str, spec: WnicSpec) -> CellKey:
    return (figure, policy, spec.latency, spec.bandwidth_bps)


def canonical(result: RunResult) -> str:
    """Bit-exact text form of a result (floats by ``repr``)."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def golden_expectations(golden: dict[str, Any], config: ExperimentConfig
                        ) -> dict[CellKey, dict[str, float]]:
    """Pinned values per cell: the fig3 grid plus every default-link
    point of ``/points``.  Empty unless ``config`` is the pinned seed."""
    if config.seed != golden["seed"]:
        return {}
    expected: dict[CellKey, dict[str, float]] = {}
    grid = golden["fig3_grid"]
    panels = ((config.latency_points(), "latencies", "by_latency",
               "latency"),
              (config.bandwidth_points(), "bandwidths_bps", "by_bandwidth",
               "bandwidth_bps"))
    for specs, axis, panel, attr in panels:
        for spec in specs:
            value = getattr(spec, attr)
            if value not in grid[axis]:
                continue
            i = grid[axis].index(value)
            for policy, energies in grid[panel].items():
                expected[cell_key("fig3", policy, spec)] = {
                    "energy": energies[i]}
    for figure, rows in golden["points"].items():
        for policy, row in rows.items():
            expected.setdefault(cell_key(figure, policy, config.wnic_spec),
                                {}).update(row)
    return expected


_FIELDS: dict[str, Callable[[RunResult], float]] = {
    "energy": lambda r: r.total_energy,
    "disk_energy": lambda r: r.disk_energy,
    "wnic_energy": lambda r: r.wnic_energy,
    "time": lambda r: r.end_time,
}


class CellCheck:
    """Decides whether one cell's result is correct.

    A cell fails if it is a failed-cell placeholder, has a non-finite
    energy or time, differs from its pinned golden value, or differs
    from the first result seen for the same cell in this run (a later
    pass, or a warm sweep against its cold sweep).
    """

    def __init__(self, expected: dict[CellKey, dict[str, float]]) -> None:
        self.expected = expected
        self.golden_checked = 0
        self.first: dict[CellKey, str] = {}

    def failure(self, key: CellKey, result: RunResult) -> str | None:
        if is_placeholder(result):
            return "placeholder result"
        values = (result.disk_energy, result.wnic_energy,
                  result.end_time, result.foreground_time)
        if not all(math.isfinite(v) for v in values):
            return "non-finite result"
        pinned = self.expected.get(key)
        if pinned is not None:
            self.golden_checked += 1
            for name, want in pinned.items():
                got = _FIELDS[name](result)
                if got != want:
                    return f"{name} {got!r} != golden {want!r}"
        text = canonical(result)
        if self.first.setdefault(key, text) != text:
            return "differs from the first result of this cell"
        return None


# ----------------------------------------------------------------------
# measurement ledger
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Everything one run measured."""

    setups: list[Interval] = field(default_factory=list)
    #: serial cells: (interval, records)
    cells: list[tuple[Interval, int]] = field(default_factory=list)
    #: parallel sweep calls: (interval, cells, records)
    cold: list[tuple[Interval, int, int]] = field(default_factory=list)
    #: warm sweeps: (interval, cells)
    warm: list[tuple[Interval, int]] = field(default_factory=list)
    #: the first pass's results, in sweep order: (figure, policy, result)
    results: list[tuple[str, str, RunResult]] = field(default_factory=list)
    executors: list[ParallelSweepExecutor] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0

    def timed(self) -> list[Interval]:
        return ([iv for iv, _ in self.cells] + [iv for iv, _, _ in self.cold]
                + [iv for iv, _ in self.warm])


def _report_failure(key: CellKey, reason: str) -> None:
    print(f"FAILED cell {key}: {reason}", file=sys.stderr)


def _check_curves(scenario: Scenario, links: list[WnicSpec],
                  curves: dict[str, list[Any]], check: CellCheck,
                  ledger: Ledger, keep: bool) -> list[RunResult]:
    """Check a sweep's cells in sweep order; returns their results."""
    results = []
    for j, spec in enumerate(links):
        for policy in scenario.policies:
            result = curves[policy][j].result
            key = cell_key(scenario.figure, policy, spec)
            reason = check.failure(key, result)
            ledger.attempted += 1
            if reason is not None:
                ledger.failed += 1
                _report_failure(key, reason)
            if keep:
                ledger.results.append((scenario.figure, policy, result))
            results.append(result)
    return results


def _sweep_failed(scenario: Scenario, links: list[WnicSpec],
                  ledger: Ledger) -> None:
    """A sweep raised: none of its cells produced a result."""
    traceback.print_exc(file=sys.stderr)
    cells = len(links) * len(scenario.policies)
    ledger.attempted += cells
    ledger.failed += cells


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class SerialSweep:
    """Serial ``run_sweep`` over fixed scenarios and link points; each
    cell is timed between two ``progress`` callbacks."""

    kind = "serial"

    def __init__(self, figures: tuple[str, ...],
                 links: Callable[[ExperimentConfig], list[WnicSpec]]
                 ) -> None:
        self.figures = figures
        self.links = links

    def set_up(self, config: ExperimentConfig) -> list[Scenario]:
        return [SCENARIOS[figure](config) for figure in self.figures]

    def run_pass(self, scenarios: list[Scenario], config: ExperimentConfig,
                 timer: HostTimer, check: CellCheck, ledger: Ledger) -> None:
        keep = ledger.passes == 0
        links = self.links(config)
        for scenario in scenarios:
            laps: list[Interval] = []
            timer.start()
            try:
                curves = run_sweep(scenario.programs, scenario.policies,
                                   links, config,
                                   progress=lambda _line: laps.append(
                                       timer.lap()))
            except Exception:  # noqa: BLE001 - counted as failed cells
                _sweep_failed(scenario, links, ledger)
                continue
            finally:
                # The last lap started an interval no cell will end.
                timer.cancel()
            results = _check_curves(scenario, links, curves, check,
                                    ledger, keep)
            ledger.cells.extend(
                zip(laps, (r.requests for r in results), strict=True))
        ledger.passes += 1

    def close(self) -> None:
        pass


class Orchestration:
    """Cold parallel sweeps into a fresh run cache, then warm sweeps
    served from it, each by a fresh executor as a new CLI call."""

    kind = "orchestration"
    figures = ("fig3", "fig2")
    warm_sweeps = WARM_SWEEPS

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.workers = len(os.sched_getaffinity(0))
        self._round = 0
        # Cold sweeps keep all workers busy; their reference loop runs
        # beside as many helpers.  Warm sweeps run in this process only.
        self.cold_timer = HostTimer(helpers=self.workers - 1)

    def set_up(self, config: ExperimentConfig) -> list[Scenario]:
        return [SCENARIOS[figure](config) for figure in self.figures]

    def _executor(self, cache_dir: Path) -> ParallelSweepExecutor:
        # The defaults of ``flexfetch sweep`` (cache on, 2 retries,
        # 0.25 s backoff), except ``partial``: a failed cell becomes a
        # placeholder the check counts, instead of aborting the sweep.
        return ParallelSweepExecutor(
            self.workers, cache=RunCache(cache_dir),
            retry=RetryPolicy(max_retries=2, backoff_base=0.25),
            partial=True)

    def _sweeps(self, scenarios: list[Scenario], config: ExperimentConfig
                ) -> list[tuple[Scenario, list[WnicSpec]]]:
        # One executor call per figure panel, as the figure builders
        # make them.
        return [(scenario, links) for scenario in scenarios
                for links in (config.latency_points(),
                              config.bandwidth_points())]

    def run_pass(self, scenarios: list[Scenario], config: ExperimentConfig,
                 timer: HostTimer, check: CellCheck, ledger: Ledger) -> None:
        keep = ledger.passes == 0
        self._round += 1
        cache_dir = self.workdir / f"cache-{self._round}"
        shutil.rmtree(self.workdir / f"cache-{self._round - 1}",
                      ignore_errors=True)
        sweeps = self._sweeps(scenarios, config)
        executor = self._executor(cache_dir)
        ledger.executors.append(executor)
        for scenario, links in sweeps:
            self.cold_timer.start()
            try:
                curves = executor.run_sweep(scenario.programs,
                                            scenario.policies, links,
                                            config)
            except Exception:  # noqa: BLE001 - counted as failed cells
                _sweep_failed(scenario, links, ledger)
                continue
            interval = self.cold_timer.stop()
            results = _check_curves(scenario, links, curves, check,
                                    ledger, keep)
            ledger.cold.append((interval, len(results),
                                sum(r.requests for r in results)))
        for _ in range(self.warm_sweeps):
            executor = self._executor(cache_dir)
            ledger.executors.append(executor)
            done = []
            timer.start()
            try:
                for scenario, links in sweeps:
                    done.append((scenario, links, executor.run_sweep(
                        scenario.programs, scenario.policies, links,
                        config)))
            except Exception:  # noqa: BLE001 - counted as failed cells
                for scenario, links in sweeps:
                    _sweep_failed(scenario, links, ledger)
                continue
            interval = timer.stop()
            cells = sum(len(_check_curves(scenario, links, curves, check,
                                          ledger, keep=False))
                        for scenario, links, curves in done)
            ledger.warm.append((interval, cells))
        ledger.passes += 1

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, workdir: Path) -> SerialSweep | Orchestration:
    """The workload called ``name``."""
    if name == "fastpath-sweep":
        return SerialSweep(("fig2", "fig3", "fig5"), reduced_grid)
    if name == "eventloop-mixed":
        return SerialSweep(("fig1", "fig4"), default_link)
    if name == "sweep-orchestration":
        return Orchestration(workdir)
    raise KeyError(name)


WORKLOADS = ("fastpath-sweep", "eventloop-mixed", "sweep-orchestration")
