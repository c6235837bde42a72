"""Traced-run coverage: every entry point resolves, and each layer is
exercised by one workload and bypassed by another."""

import pytest

import run
import tracing
import workloads
from tracing import ENTRY_POINTS, EntryPoint, SpanRecorder, expand

import repro.core.session
import repro.experiments.parallel
import repro.sim.plan


def test_every_entry_point_resolves():
    resolved = tracing.resolve_all()
    layers = {entry.layer for entry, _, _ in resolved}
    assert layers == set(tracing.LAYERS)
    for entry in ENTRY_POINTS:
        assert expand(entry), entry
    synth = [e.attr for e, _, _ in resolved if e.layer == "traces.synth"]
    assert "generate_thunderbird" in synth


@pytest.mark.parametrize("entry", [
    EntryPoint("plan.build", "repro.sim.plan", "plan_for_renamed"),
    EntryPoint("engine", "repro.sim.engine:EventLoop", "schedule"),
    # Inherited, not defined: wrapping it would wrap the base class's.
    EntryPoint("policy", "repro.core.policies:DiskOnlyPolicy", "route"),
    EntryPoint("traces.synth", "repro.traces.synth", "synthesise_*"),
])
def test_a_stale_entry_point_fails_loudly(entry):
    with pytest.raises(AttributeError):
        expand(entry)


def test_functions_are_patched_where_callers_look_them_up():
    original = repro.sim.plan.plan_for
    recorder = SpanRecorder(extra_modules=[workloads])
    recorder.install()
    try:
        for module in (repro.sim.plan, repro.core.session,
                       repro.experiments.parallel, workloads):
            assert module.plan_for is not original
            assert module.plan_for.__wrapped__ is original
    finally:
        recorder.uninstall()
    for module in (repro.sim.plan, repro.core.session,
                   repro.experiments.parallel, workloads):
        assert module.plan_for is original


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()
    recorder.names[:] = ["a", "b"]
    recorder.layer_of[:] = ["session", "routing"]
    # span 0 (a): 0..10, children 1 (b): 2..5 and 2 (b): 6..7
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0),
                                     (1, 0, 6.0, 7.0)):
        recorder.span_name.append(name)
        recorder.span_parent.append(parent)
        recorder.span_start.append(start)
        recorder.span_end.append(end)
    assert list(recorder.self_times()) == [6.0, 3.0, 1.0]
    totals = recorder.layer_totals()
    assert totals["session"] == (1, 6.0)
    assert totals["routing"] == (2, 4.0)


class _MiniOrchestration(workloads.Orchestration):
    figures = ("fig3",)
    warm_sweeps = 1

    def _sweeps(self, scenarios, config):
        return [(scenario, workloads.default_link(config))
                for scenario in scenarios]


def _traced(tmp_path, workload):
    ledger, layers, _ = run.run("mini", 7, 0.0, True, out_dir=tmp_path,
                                workload=workload)
    assert ledger.failed == 0 and ledger.attempted > 0
    assert set(layers) == set(run.PER_LAYER)
    return layers


@pytest.fixture(scope="module")
def traced_layers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {
        "fastpath": _traced(tmp, workloads.SerialSweep(
            ("fig3",), workloads.default_link)),
        "eventloop": _traced(tmp, workloads.SerialSweep(
            ("fig1",), workloads.default_link)),
        "orchestration": _traced(tmp, _MiniOrchestration(tmp / "work")),
    }


CACHE_COUNTS = ("cache.hits", "cache.misses", "cache.stores")


def test_fast_path_exercises_the_plan_and_bypasses_the_event_loop(
        traced_layers):
    fast = traced_layers["fastpath"]
    assert fast["plan.cursor_calls"] > 0
    assert fast["engine.events"] == 0
    assert fast["kernel.calls"] == 0
    for name in ("session.records", "routing.extents", "policy.calls",
                 "costmodel.stage_estimates", "devices.transfers",
                 "runner.cells"):
        assert fast[name] > 0, name


def test_event_loop_exercises_engine_and_kernel_and_bypasses_the_plan(
        traced_layers):
    loop = traced_layers["eventloop"]
    assert loop["plan.cursor_calls"] == 0
    assert loop["engine.events"] > 0
    assert loop["kernel.calls"] > 0
    assert loop["session.records"] > 0


def test_only_orchestration_touches_executor_and_cache(traced_layers):
    for serial in ("fastpath", "eventloop"):
        layers = traced_layers[serial]
        for name in CACHE_COUNTS + ("parallel.jobs",):
            assert layers[name] == 0, (serial, name)
    orch = traced_layers["orchestration"]
    for name in CACHE_COUNTS + ("parallel.jobs",):
        assert orch[name] > 0, name
    # 4 cold misses stored, then 4 warm hits.
    assert (orch["cache.misses"], orch["cache.stores"],
            orch["cache.hits"]) == (4, 4, 4)
    # Cells run in forked workers, which drop the span wrappers.
    assert orch["session.records"] == 0
