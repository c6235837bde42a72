"""Span recording around the public entry points of each layer.

The benchmark's traced run wraps every entry point in ``ENTRY_POINTS``
before any session is built.  A span records its entry point, start,
end and parent span in packed in-memory columns; they are written out
once, when the run ends.  A layer's self time is the time its spans
cover minus the time their child spans cover, so time spent in
unwrapped helpers counts towards the nearest wrapped caller.

Every wrapped name is patched where its callers look it up: a class
attribute for methods, and every module global bound to the function
object for functions (``plan_for`` alone is bound in ``repro.sim.plan``,
``repro.core.session`` and ``repro.experiments.parallel``).  A name
that no longer resolves raises at install time, so a rename fails
loudly instead of leaving a layer silently untraced.

Worker processes forked while tracing is installed drop the wrappers
at fork, so a parallel sweep is traced on the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

import numpy as np


@dataclass(frozen=True, slots=True)
class EntryPoint:
    """One traced entry point: ``owner.attr`` where ``owner`` is a
    dotted module path, or ``module:Class`` for a method."""

    layer: str
    owner: str
    attr: str

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}"


def _entries(layer: str, owner: str, *attrs: str) -> list[EntryPoint]:
    return [EntryPoint(layer, owner, attr) for attr in attrs]


#: Layer -> the entry points whose spans make it up.  ``generate_*``
#: in ``repro.traces.synth`` is expanded at install time.
ENTRY_POINTS: tuple[EntryPoint, ...] = tuple(
    _entries("traces.synth", "repro.traces.synth", "generate_*")
    + _entries("traces.compile", "repro.core.workload:ProgramSpec",
               "prepared")
    + _entries("profile", "repro.core.profile", "profile_from_trace")
    + _entries("plan.build", "repro.sim.plan", "plan_for")
    + _entries("plan.cursor", "repro.sim.plan:PlanCursor",
               "read", "resident_bytes")
    + _entries("engine", "repro.sim.engine:EventLoop",
               "schedule_at", "run")
    + _entries("kernel", "repro.kernel.path:KernelPath",
               "read", "write", "plan_writeback", "complete_fetch")
    + _entries("session", "repro.core.session:SimulationSession", "run")
    + _entries("routing", "repro.core.routing:RequestRouter", "service")
    + _entries("policy", "repro.core.policies:Policy",
               "route", "on_syscall", "on_tick")
    + _entries("policy", "repro.core.bluefs:BlueFSPolicy", "on_tick")
    + _entries("policy", "repro.core.flexfetch:FlexFetchPolicy",
               "on_syscall", "on_tick")
    + _entries("costmodel", "repro.core.costmodel:CostModel",
               "stage_pair", "stage_estimate", "marginal_pair")
    + _entries("devices", "repro.devices.service:DiskService", "transfer")
    + _entries("devices", "repro.devices.service:WnicService", "transfer")
    + _entries("telemetry", "repro.core.telemetry", "build_run_result")
    + _entries("runner", "repro.experiments.runner",
               "run_point", "run_sweep")
    + _entries("parallel",
               "repro.experiments.parallel:ParallelSweepExecutor",
               "run_sweep")
    + _entries("cache.key", "repro.experiments.cache", "run_key")
    + _entries("cache.get", "repro.experiments.cache:RunCache", "get")
    + _entries("cache.put", "repro.experiments.cache:RunCache", "put"))

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRY_POINTS))


def _resolve_owner(owner: str) -> Any:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def expand(entry: EntryPoint) -> list[tuple[EntryPoint, Any, Callable[..., Any]]]:
    """``(entry, owner object, original callable)`` for one entry point.

    Raises ``AttributeError`` when the name no longer resolves.  For a
    method the owner must define it itself (not inherit it), so the
    wrapper replaces exactly one function.
    """
    owner = _resolve_owner(entry.owner)
    if entry.attr.endswith("*"):
        prefix = entry.attr[:-1]
        names = sorted(n for n in dir(owner) if n.startswith(prefix)
                       and callable(getattr(owner, n)))
        if not names:
            raise AttributeError(f"{entry.owner} has no {entry.attr}")
        return [(EntryPoint(entry.layer, entry.owner, n), owner,
                 getattr(owner, n)) for n in names]
    if isinstance(owner, type):
        if entry.attr not in vars(owner):
            raise AttributeError(
                f"{owner.__qualname__} does not define {entry.attr}")
        return [(entry, owner, vars(owner)[entry.attr])]
    return [(entry, owner, getattr(owner, entry.attr))]


def resolve_all() -> list[tuple[EntryPoint, Any, Callable[..., Any]]]:
    """Every concrete entry point, resolved (raises on a stale name)."""
    return [item for entry in ENTRY_POINTS for item in expand(entry)]


class SpanRecorder:
    """Installs span wrappers and holds the recorded spans.

    ``on_result`` maps an entry point name to a function of its return
    value whose result is added to ``counters[name]`` — how
    ``session.records`` counts replayed records without a wrapper
    inside the session.
    """

    def __init__(self, *, on_result: dict[str, Callable[[Any], int]]
                 | None = None,
                 extra_modules: Iterable[ModuleType] = ()) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._on_result = dict(on_result or {})
        self._extra_modules = tuple(extra_modules)
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack = [-1]

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], name_id: int,
              count: Callable[[Any], int] | None,
              counter: str) -> Callable[..., Any]:
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counters[counter] += count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point.  A recorder installs once."""
        if self.names:
            raise RuntimeError("span recorder already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        modules.extend(self._extra_modules)
        for entry, owner, original in resolve_all():
            name_id = len(self.names)
            self.names.append(entry.name)
            self.layer_of.append(entry.layer)
            count = self._on_result.get(entry.name)
            if count is not None:
                self.counters.setdefault(entry.name, 0)
            wrapper = self._wrap(original, name_id, count, entry.name)
            if isinstance(owner, type):
                self._patch(owner, entry.attr, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        os.register_at_fork(after_in_child=self._drop_in_child)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _drop_in_child(self) -> None:
        # A forked sweep worker runs untraced: its spans would die with
        # it, and the wrappers would only slow the worker down.
        self.uninstall()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.span_name)

    def self_times(self) -> np.ndarray:
        """Self time (seconds) of every recorded span."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent],
                            weights=duration[has_parent],
                            minlength=len(duration))
        return duration - child

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Layer -> (span count, self seconds)."""
        totals = {layer: (0, 0.0) for layer in LAYERS}
        if not len(self):
            return totals
        name = np.frombuffer(self.span_name, dtype=np.int32)
        n_names = len(self.names)
        counts = np.bincount(name, minlength=n_names)
        selfs = np.bincount(name, weights=self.self_times(),
                            minlength=n_names)
        for name_id, layer in enumerate(self.layer_of):
            count, seconds = totals[layer]
            totals[layer] = (count + int(counts[name_id]),
                             seconds + float(selfs[name_id]))
        return totals

    def name_counts(self) -> dict[str, int]:
        """Entry point name -> span count."""
        if not len(self):
            return dict.fromkeys(self.names, 0)
        counts = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts, strict=True)}

    def write(self, path: Path) -> None:
        """Dump every span (columns plus the entry point names)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 layers=np.array(self.layer_of),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
