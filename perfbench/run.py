"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fastpath-sweep --seed 7 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run also replays one pass with span recorders installed and the
metrics are the per-layer ones.  Every timing is host-normalised (see
``hostref.py``); each raw value is printed beside it.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostref import HostTimer, median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Period of the reference samples taken inside in-process intervals.
SAMPLE_EVERY_S = 0.2

#: Host-normalised timings a run computes: name -> unit.  The cell
#: percentiles are per-layer only: the 9 cells of ``eventloop-mixed``
#: are too few and too unlike each other for a gated percentile.
TIMINGS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "cold_cells_per_s": "1/s",
    "warm_cells_per_s": "1/s",
    "runner.cell_ms_p50": "ms",
    "runner.cell_ms_p90": "ms",
}
#: End-to-end metrics: name -> unit.
END_TO_END = {
    **{name: unit for name, unit in TIMINGS.items()
       if not name.startswith("runner.")},
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "traces.synth_s": "s",
    "traces.compile_s": "s",
    "profile.build_s": "s",
    "plan.build_s": "s",
    "plan.cursor_calls": "count",
    "plan.cursor_self_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "session.records": "count",
    "session.self_s": "s",
    "routing.extents": "count",
    "routing.self_s": "s",
    "policy.calls": "count",
    "policy.self_s": "s",
    "costmodel.stage_estimates": "count",
    "costmodel.self_s": "s",
    "devices.transfers": "count",
    "devices.self_s": "s",
    "telemetry.self_s": "s",
    "runner.cells": "count",
    "runner.self_s": "s",
    "runner.duplicate_cell_share": "ratio",
    "runner.cell_ms_p50": "ms",
    "runner.cell_ms_p90": "ms",
    "runner.cell_samples": "count",
    "parallel.jobs": "count",
    "parallel.parent_self_s": "s",
    "supervisor.respawns": "count",
    "supervisor.retries": "count",
    "cache.key_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.hit_ratio": "ratio",
    "sim.records": "count",
    "sim.energy_j": "J",
    "sim.disk_spinups": "count",
    "sim.wnic_wakeups": "count",
    "sim.cache_hit_ratio": "ratio",
    "host.ref_ms_p50": "ms",
    **{f"host.raw.{name}": unit for name, unit in TIMINGS.items()},
    "trace.overhead_ratio": "ratio",
}


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src``, only."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__},"
                         f" not from {SRC}")


def timing_metrics(kind: str, ledger, time_of) -> dict[str, float]:
    """The end-to-end timings of one run, with ``time_of(interval)``
    giving each interval's seconds (normalised or raw)."""
    setup = median([time_of(iv) for iv in ledger.setups])
    if kind == "serial":
        times = [time_of(iv) for iv, _ in ledger.cells]
        records = sum(n for _, n in ledger.cells)
        busy = sum(times)
        cells = len(times)
        per_cell_ms = [t * 1e3 for t in times]
        # Serial cells run with every in-process cache already warm
        # (set-up built them); a cold run pays set-up once per pass.
        warm = cells / busy
        cold = cells / (busy + ledger.passes * setup)
    else:
        cold_times = [time_of(iv) for iv, _, _ in ledger.cold]
        cells = sum(n for _, n, _ in ledger.cold)
        records = sum(r for _, _, r in ledger.cold)
        busy = sum(cold_times)
        per_cell_ms = [t * 1e3 / n for t, (_, n, _)
                       in zip(cold_times, ledger.cold, strict=True)]
        cold = cells / busy
        warm = (sum(n for _, n in ledger.warm)
                / sum(time_of(iv) for iv, _ in ledger.warm))
    return {
        "setup_s": setup,
        "records_per_s": records / busy,
        "cold_cells_per_s": cold,
        "warm_cells_per_s": warm,
        "runner.cell_ms_p50": percentile(per_cell_ms, 50.0),
        "runner.cell_ms_p90": percentile(per_cell_ms, 90.0),
    }


def report_lines(normalised: dict[str, float], raw: dict[str, float],
                 peak_rss: float) -> list[str]:
    """The metric table: each timing's normalised and raw value."""
    lines = [f"{'metric':<20} {'normalised':>14} {'raw':>14}  unit"]
    for name, unit in TIMINGS.items():
        lines.append(f"{name:<20} {normalised[name]:>14.6g}"
                     f" {raw[name]:>14.6g}  {unit}")
    lines.append(f"{'peak_rss_mb':<20} {peak_rss:>14.6g} {'':>14}  MB")
    return lines


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (KiB
    on Linux), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def simulated_statistics(ledger) -> dict[str, float]:
    """The ``sim.*`` ledger and the duplicate-cell share of one pass."""
    from workloads import canonical

    results = ledger.results
    seen: set[tuple[str, str, str]] = set()
    duplicates = 0
    for figure, policy, result in results:
        key = (figure, policy, canonical(result))
        duplicates += key in seen
        seen.add(key)
    n = len(results)
    return {
        "sim.records": sum(r.requests for _, _, r in results),
        "sim.energy_j": sum(r.total_energy for _, _, r in results),
        "sim.disk_spinups": sum(r.disk_spinups for _, _, r in results),
        "sim.wnic_wakeups": sum(r.wnic_wakeups for _, _, r in results),
        "sim.cache_hit_ratio": (sum(r.cache_hit_ratio for _, _, r in results)
                                / n if n else 0.0),
        "runner.duplicate_cell_share": duplicates / n if n else 0.0,
    }


def layer_metrics(recorder, ledger) -> dict[str, float]:
    """Per-layer counts and self times of the traced pass."""
    totals = recorder.layer_totals()
    names = recorder.name_counts()

    def count(layer: str) -> int:
        return totals[layer][0]

    def self_s(layer: str) -> float:
        return totals[layer][1]

    executors = ledger.executors
    hits = sum(e.cache.hits for e in executors if e.cache is not None)
    misses = sum(e.cache.misses for e in executors if e.cache is not None)
    stores = sum(e.cache.stores for e in executors if e.cache is not None)
    return {
        "traces.synth_s": self_s("traces.synth"),
        "traces.compile_s": self_s("traces.compile"),
        "profile.build_s": self_s("profile"),
        "plan.build_s": self_s("plan.build"),
        "plan.cursor_calls": count("plan.cursor"),
        "plan.cursor_self_s": self_s("plan.cursor"),
        "engine.events": names["repro.sim.engine:EventLoop.schedule_at"],
        "engine.self_s": self_s("engine"),
        "kernel.calls": count("kernel"),
        "kernel.self_s": self_s("kernel"),
        "session.records": recorder.counters[SESSION_RUN],
        "session.self_s": self_s("session"),
        "routing.extents": count("routing"),
        "routing.self_s": self_s("routing"),
        "policy.calls": count("policy"),
        "policy.self_s": self_s("policy"),
        "costmodel.stage_estimates": count("costmodel"),
        "costmodel.self_s": self_s("costmodel"),
        "devices.transfers": count("devices"),
        "devices.self_s": self_s("devices"),
        "telemetry.self_s": self_s("telemetry"),
        "runner.cells": names["repro.experiments.runner.run_point"],
        "runner.self_s": self_s("runner"),
        "parallel.jobs": sum(e.live_runs + e.cache_hits + e.journal_hits
                             + len(e.failures) for e in executors),
        "parallel.parent_self_s": self_s("parallel"),
        "supervisor.respawns": sum(e.respawns for e in executors),
        "supervisor.retries": sum(sum(e.retries.values())
                                  for e in executors),
        "cache.key_s": self_s("cache.key"),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.stores": stores,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


SESSION_RUN = "repro.core.session:SimulationSession.run"


def measure(workload, config, check, seconds: float, *, single_pass: bool):
    """Set up ``SETUP_REPEATS`` times, then time whole passes until the
    next one would end past ``seconds`` (at least one).  Returns the
    ledger and every reference timing taken."""
    import workloads

    ledger = workloads.Ledger()
    setup_timer = HostTimer(sample_every=SAMPLE_EVERY_S)
    timer = HostTimer(sample_every=SAMPLE_EVERY_S
                      if workload.kind == "serial" else None)
    for _ in range(SETUP_REPEATS):
        scenarios = None  # let the previous set-up be collected
        fresh_process_state()
        setup_timer.start()
        scenarios = workload.set_up(config)
        ledger.setups.append(setup_timer.stop())
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        workload.run_pass(scenarios, config, timer, check, ledger)
        now = time.perf_counter()
        if single_pass or now - began + (now - pass_began) > seconds:
            break
    return ledger, setup_timer.refs + timer.refs


def fresh_process_state() -> None:
    """Forget memoised burst plans and collect garbage, so a set-up
    starts from what a new process would have."""
    from repro.sim import plan as sim_plan

    sim_plan._PLAN_MEMO.clear()
    gc.collect()


def traced_pass(workload, config, check):
    """Set up and run one pass with span recorders installed."""
    import workloads
    from tracing import SpanRecorder

    recorder = SpanRecorder(on_result={SESSION_RUN: lambda r: r.requests},
                            extra_modules=[workloads])
    ledger = workloads.Ledger()
    # No samples inside intervals here: the handler's loop would land in
    # whichever span is open and inflate its self time.
    timer = HostTimer()
    fresh_process_state()
    recorder.install()
    try:
        scenarios = workload.set_up(config)
        workload.run_pass(scenarios, config, timer, check, ledger)
    finally:
        recorder.uninstall()
    return recorder, ledger


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        *, out_dir: Path = OUT_DIR, workload=None):
    """Measure one workload; returns ``(ledger, metrics, lines)``."""
    import workloads

    config = workloads.config_for(seed)
    golden = json.loads((ROOT / "benchmarks" / "results" / "golden.json")
                        .read_text(encoding="utf-8"))
    check = workloads.CellCheck(workloads.golden_expectations(golden, config))
    if workload is None:
        workload = workloads.build(workload_name,
                                   out_dir / f"work-{os.getpid()}")
    try:
        ledger, refs = measure(workload, config, check, seconds,
                               single_pass=trace)
        normalised = timing_metrics(workload.kind, ledger,
                                    lambda iv: iv.normalised)
        raw = timing_metrics(workload.kind, ledger, lambda iv: iv.raw)
        metrics = {**normalised, "peak_rss_mb": peak_rss_mb(),
                   "runner.cell_samples": (len(ledger.cells)
                                           or len(ledger.cold))}
        stats = simulated_statistics(ledger)
        lines = [f"workload {workload_name} seed {seed}:"
                 f" {ledger.passes} pass(es), {ledger.attempted} cells,"
                 f" {ledger.failed} failed,"
                 f" {check.golden_checked} golden-checked",
                 *report_lines(normalised, raw, metrics["peak_rss_mb"]),
                 f"cell samples {metrics['runner.cell_samples']},"
                 f" host reference loop p50 {median(refs) * 1e3:.2f} ms"]
        lines.extend(f"{name} {value:.6g}" for name, value in stats.items())
        if not trace:
            return ledger, metrics, lines

        recorder, traced = traced_pass(workload, config, check)
        untraced = sum(iv.normalised for iv in ledger.timed()) / ledger.passes
        layers = {
            **layer_metrics(recorder, traced),
            **{k: v for k, v in stats.items() if k in PER_LAYER},
            **{k: v for k, v in metrics.items() if k in PER_LAYER},
            "host.ref_ms_p50": median(refs) * 1e3,
            **{f"host.raw.{name}": raw[name] for name in TIMINGS},
            "trace.overhead_ratio": (sum(iv.normalised for iv in
                                         traced.timed()) / untraced),
        }
        ledger.attempted += traced.attempted
        ledger.failed += traced.failed
        recorder.write(out_dir / f"spans-{workload_name}.npz")
        lines.append(f"traced pass: {len(recorder)} spans,"
                     f" overhead x{layers['trace.overhead_ratio']:.3f}")
        return ledger, layers, lines
    finally:
        workload.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import tracing
    import workloads

    # Every traced entry point must still exist, traced run or not, so
    # a rename in the program fails the benchmark loudly.
    tracing.resolve_all()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(workloads.WORKLOADS)}")
    ledger, metrics, lines = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    for line in lines:
        print(line)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
