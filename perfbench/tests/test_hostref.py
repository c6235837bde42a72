"""The reference loop and host normalisation."""

import ast
import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostref
import run
from hostref import NOMINAL_REF_S, Interval, normalise, reference_loop
from workloads import Ledger

BENCH = Path(__file__).resolve().parent.parent


def test_reference_module_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "hostref.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not {name for name in imported
                if name == "repro" or name.startswith("repro.")}
    # And importing it pulls in no repro module indirectly.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import hostref;"
             " hostref.time_reference();"
             " print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", probe, str(BENCH)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_reference_loop_creates_no_gc_tracked_objects():
    gc.disable()
    try:
        reference_loop(10)  # warm any lazily created state
        before = gc.get_count()[0]
        reference_loop(10)
        short = gc.get_count()[0] - before
        before = gc.get_count()[0]
        reference_loop(200_000)
        long = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert long == short


def test_normalised_value_is_raw_times_nominal_over_reference():
    interval = Interval(segments=(0.5,), refs=(0.010, 0.030))
    assert interval.raw == 0.5
    assert interval.normalised == pytest.approx(0.5 * NOMINAL_REF_S / 0.020)
    assert normalise(2.0, 0.04, 0.04) == pytest.approx(
        2.0 * NOMINAL_REF_S / 0.04)
    # A host running at nominal speed changes nothing.
    assert normalise(1.25, NOMINAL_REF_S, NOMINAL_REF_S) == 1.25


def test_each_segment_is_normalised_by_the_loops_around_it():
    interval = Interval(segments=(0.1, 0.2), refs=(0.01, 0.02, 0.04))
    assert interval.raw == pytest.approx(0.3)
    assert interval.normalised == pytest.approx(
        0.1 * NOMINAL_REF_S / 0.015 + 0.2 * NOMINAL_REF_S / 0.03)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampling_timer_leaves_the_reference_loops_out():
    timer = hostref.HostTimer(sample_every=0.05)
    began = time.perf_counter()
    timer.start()
    _busy(0.4)
    interval = timer.stop()
    elapsed = time.perf_counter() - began
    assert len(interval.segments) >= 3
    assert len(interval.refs) == len(interval.segments) + 1
    # Everything but the interval's own work went to reference loops.
    assert elapsed - interval.raw == pytest.approx(sum(interval.refs),
                                                   abs=0.01)


def test_reference_beside_helpers_reaps_every_helper():
    assert hostref.time_reference_beside(1) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_lap_shares_the_loop_between_intervals():
    timer = hostref.HostTimer()
    timer.start()
    first = timer.lap()
    second = timer.stop()
    assert first.refs[-1] == second.refs[0]
    assert len(timer.refs) == 3


def _iv(raw, before, after):
    return Interval(segments=(raw,), refs=(before, after))


def _synthetic_serial_ledger():
    ledger = Ledger()
    ledger.setups = [_iv(1.0, 0.01, 0.01), _iv(1.2, 0.04, 0.04),
                     _iv(0.9, 0.02, 0.02)]
    ledger.cells = [(_iv(0.1, 0.01, 0.03), 1000),
                    (_iv(0.3, 0.04, 0.04), 2000),
                    (_iv(0.2, 0.02, 0.02), 500)]
    ledger.passes = 1
    return ledger


def test_metrics_normalise_each_interval_on_synthetic_timings():
    ledger = _synthetic_serial_ledger()
    norm = run.timing_metrics("serial", ledger, lambda iv: iv.normalised)
    raw = run.timing_metrics("serial", ledger, lambda iv: iv.raw)
    cell_norm = [0.1 * NOMINAL_REF_S / 0.02, 0.3 * NOMINAL_REF_S / 0.04,
                 0.2 * NOMINAL_REF_S / 0.02]
    setup_norm = sorted([1.0 * NOMINAL_REF_S / 0.01,
                         1.2 * NOMINAL_REF_S / 0.04,
                         0.9 * NOMINAL_REF_S / 0.02])[1]
    assert norm["setup_s"] == pytest.approx(setup_norm)
    assert norm["records_per_s"] == pytest.approx(3500 / sum(cell_norm))
    assert norm["runner.cell_ms_p50"] == pytest.approx(
        sorted(cell_norm)[1] * 1e3)
    assert norm["warm_cells_per_s"] == pytest.approx(3 / sum(cell_norm))
    assert norm["cold_cells_per_s"] == pytest.approx(
        3 / (sum(cell_norm) + setup_norm))
    assert raw["records_per_s"] == pytest.approx(3500 / 0.6)
    assert raw["setup_s"] == pytest.approx(1.0)


def test_orchestration_metrics_on_synthetic_timings():
    ledger = Ledger()
    ledger.setups = [_iv(0.5, 0.02, 0.02)]
    ledger.cold = [(_iv(2.0, 0.01, 0.01), 20, 40_000),
                   (_iv(1.0, 0.02, 0.02), 16, 30_000)]
    ledger.warm = [(_iv(0.05, 0.01, 0.03), 72)]
    ledger.passes = 1
    norm = run.timing_metrics("orchestration", ledger,
                              lambda iv: iv.normalised)
    cold = [2.0 * NOMINAL_REF_S / 0.01, 1.0 * NOMINAL_REF_S / 0.02]
    assert norm["cold_cells_per_s"] == pytest.approx(36 / sum(cold))
    assert norm["records_per_s"] == pytest.approx(70_000 / sum(cold))
    assert norm["warm_cells_per_s"] == pytest.approx(
        72 / (0.05 * NOMINAL_REF_S / 0.02))
    assert norm["runner.cell_ms_p90"] == pytest.approx(
        hostref.percentile([cold[0] * 1e3 / 20, cold[1] * 1e3 / 16], 90))


def test_every_raw_value_is_printed_beside_its_normalised_metric():
    ledger = _synthetic_serial_ledger()
    norm = run.timing_metrics("serial", ledger, lambda iv: iv.normalised)
    raw = run.timing_metrics("serial", ledger, lambda iv: iv.raw)
    lines = run.report_lines(norm, raw, 123.0)
    for name, unit in run.TIMINGS.items():
        [line] = [ln for ln in lines if ln.split()[0] == name]
        _, shown_norm, shown_raw, shown_unit = line.split()
        assert float(shown_norm) == pytest.approx(norm[name], rel=1e-5)
        assert float(shown_raw) == pytest.approx(raw[name], rel=1e-5)
        assert shown_unit == unit
        assert run.PER_LAYER[f"host.raw.{name}"] == unit
    assert set(run.END_TO_END) - {"peak_rss_mb"} <= set(run.TIMINGS)


def test_percentile_interpolates_linearly():
    assert hostref.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert hostref.percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        hostref.percentile([], 50)
