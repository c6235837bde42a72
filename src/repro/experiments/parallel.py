"""Parallel sweep execution under worker supervision.

A figure sweep is an embarrassingly parallel matrix: every (policy x
link point) cell is one independent, deterministic simulation.  The
:class:`ParallelSweepExecutor` fans those cells out over a
:class:`~repro.experiments.supervisor.SupervisedPool` and reassembles
the curves in sweep order, so a parallel run is **bit-identical** to the
serial one — completion order affects only the interleaving of progress
lines, never the results.

Determinism across process boundaries rests on two properties the rest
of the codebase already guarantees:

* every simulation input is an immutable value (specs, compiled traces,
  frozen configs) — no shared mutable state;
* event ordering inside a run is a pure function of that run's schedule
  (per-loop tie-break slots in :class:`~repro.sim.engine.EventLoop`),
  independent of whatever else ran in the worker process.

Heavy payloads never ride inside job pickles.  Before the pool spawns,
the parent stages each distinct compiled trace (and any policy-factory
payload, such as an execution profile) in the module-level
:data:`_WORKER_PAYLOADS` registry, keyed by content digest; forked
workers inherit the registry copy-on-write.  A :class:`SweepJob`
therefore carries only parameters plus :class:`ProgramRef` digests —
its pickled size is independent of trace length — and
:func:`_execute_job` resolves the digests against the worker's
inherited registry.

On top of the fan-out the executor layers the resilience story:

* an optional :class:`~repro.experiments.cache.RunCache` — cached cells
  never reach the pool, live results are persisted as they complete,
  and corrupt rows are counted and surfaced in the summary;
* an optional :class:`~repro.experiments.journal.SweepJournal` — every
  completion is fsync'd to an append-only journal, and a resumed
  journal's completed cells are skipped bit-identically;
* a :class:`~repro.experiments.supervisor.RetryPolicy` with per-cell
  wall-clock timeouts, turning worker death and hangs into bounded
  retries instead of a lost sweep;
* ``partial=True`` graceful degradation: exhausted cells become
  placeholder points plus machine-readable :class:`SweepFailure`
  records instead of an all-or-nothing :class:`SweepCellError`.
"""

from __future__ import annotations

import cProfile
import itertools
import math
import os
import pstats
import time
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Any

from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec, prepare_specs
from repro.devices.specs import WnicSpec
from repro.experiments.cache import CODE_VERSION_SALT, RunCache, run_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    PolicyFactory,
    SweepPoint,
    build_fault_schedule,
    progress_line,
    run_point,
)
from repro.experiments.supervisor import (
    NO_RETRY,
    CellAttempt,
    CellFailure,
    RetryPolicy,
    SupervisedPool,
)
from repro.faults.chaos import CacheChaos, ChaosInjector, ChaosSpec
from repro.faults.schedule import FaultSpec
from repro.sim.plan import plan_for, plan_key
from repro.traces.compile import CompiledTrace
from repro.units import BytesPerSecond, Seconds


class SweepCellError(RuntimeError):
    """One sweep cell failed permanently.

    Raised after every other cell has been allowed to finish (and after
    the failing cell's retry budget, if any, was exhausted).  The
    worker's original exception is chained as ``__cause__`` and — since
    cross-process ``__cause__`` loses frame detail — the worker's full
    traceback text is preserved verbatim on :attr:`remote_traceback`.
    """

    def __init__(self, curve: str, wnic_spec: WnicSpec, *,
                 attempts: int = 1,
                 remote_traceback: str | None = None) -> None:
        message = (f"sweep cell failed: policy={curve!r}"
                   f" lat={wnic_spec.latency * 1e3:.0f}ms"
                   f" bw={wnic_spec.bandwidth_bps / 1e6:.1f}MB/s")
        if attempts > 1:
            message += f" after {attempts} attempts"
        super().__init__(message)
        self.curve = curve
        self.wnic_spec = wnic_spec
        self.attempts = attempts
        self.remote_traceback = remote_traceback or ""


#: Per-process payload registry, keyed by content digest.  The parent
#: stages every distinct compiled trace and policy-factory payload here
#: before the pool spawns; workers fork from the parent (including
#: supervision respawns) and inherit the mapping copy-on-write, so each
#: payload crosses the process boundary once per worker lifetime
#: instead of once per job pickle.  Staging is idempotent — digests are
#: content hashes, so re-staging the same digest stores an equal value.
_WORKER_PAYLOADS: dict[str, object] = {}


class UnknownPayloadDigestError(KeyError):
    """A job referenced a digest absent from the payload registry.

    Only possible when a :class:`SweepJob` (or prepared policy factory)
    is executed in a process that did not fork from the parent that
    staged its payloads — e.g. a hand-built job in a fresh interpreter.
    """

    def __init__(self, digest: str) -> None:
        super().__init__(
            f"payload digest {digest[:12]}... is not staged in this"
            " process; sweep jobs must run in workers forked from the"
            " parent that built them (see stage_payload)")
        self.digest = digest


def stage_payload(digest: str, payload: object) -> str:
    """Stage an immutable payload for digest-keyed worker resolution."""
    _WORKER_PAYLOADS[digest] = payload
    return digest


def resolve_payload(digest: str) -> object:
    """The staged payload for ``digest`` (parent or forked worker)."""
    try:
        return _WORKER_PAYLOADS[digest]
    except KeyError:
        raise UnknownPayloadDigestError(digest) from None


@dataclass(frozen=True, slots=True)
class ProgramRef:
    """A :class:`ProgramSpec` by reference: flags plus trace digest.

    The job-pickle form of a prepared spec — constant-size however long
    the trace is.  ``digest`` is the compiled trace's content digest,
    resolved against the worker's inherited payload registry.
    """

    digest: str
    profiled: bool = True
    disk_pinned: bool = False

    @classmethod
    def of(cls, spec: ProgramSpec) -> ProgramRef:
        return cls(digest=spec.compiled.digest, profiled=spec.profiled,
                   disk_pinned=spec.disk_pinned)

    def resolve(self) -> ProgramSpec:
        trace = resolve_payload(self.digest)
        assert isinstance(trace, CompiledTrace)
        return ProgramSpec(trace=trace, profiled=self.profiled,
                           disk_pinned=self.disk_pinned)


def _prepare_factory(factory: PolicyFactory) -> PolicyFactory:
    """A factory's dispatch form, with its heavy payloads staged.

    Factories that embed large values (e.g. an execution profile)
    expose ``prepare_for_dispatch(stage)``; it stages the payloads via
    the given callable and returns an equivalent digest-referencing
    factory whose ``cache_token()`` is identical.  Plain factories pass
    through unchanged.
    """
    prepare = getattr(factory, "prepare_for_dispatch", None)
    if prepare is None:
        return factory
    return prepare(stage_payload)


@dataclass(frozen=True, slots=True)
class SweepJob:
    """Everything one worker needs to run one sweep cell.

    The job is a plain picklable value whose size does not scale with
    trace length: programs are :class:`ProgramRef` digests into the
    fork-inherited payload registry, and prepared policy factories
    reference their payloads the same way.
    """

    index: int
    curve: str
    programs: tuple[ProgramRef, ...]
    policy_factory: PolicyFactory
    wnic_spec: WnicSpec
    config: ExperimentConfig
    #: fault *spec*, not schedule: the frozen spec pickles cheaply and
    #: the worker rebuilds the (mutable-cursor) schedule from
    #: (spec, seed) — the same pair the cache key hashes.
    faults: FaultSpec | None = None
    #: shadow-verify the cell against the event loop
    #: (:mod:`repro.core.shadow`); None defers to ``REPRO_SANITIZE``.
    #: Verification-only — the returned result is bit-identical either
    #: way (a divergence raises), so it stays out of the cache key.
    sanitize: bool | None = None


#: Per-cell profiling sink, armed parent-side before the pool forks
#: (like the payload registry, workers inherit the value copy-on-write).
#: When set, every executed cell dumps a cProfile capture into it.
_PROFILE_DIR: str | None = None

#: Per-process dump counter: the same cell can run live twice in one
#: process (two panels sharing a link point with the cache off).
_DUMP_SEQ = itertools.count()


def enable_profiling(directory: str | os.PathLike[str] | None) -> None:
    """Arm (or with None, disarm) per-cell profiling.

    Must be called in the sweep parent *before* the pool spawns: forked
    workers inherit the armed value, and each cell they execute dumps
    ``cell-<run key>-<pid>-<seq>.prof`` into ``directory``.  Sweep
    indices restart with every figure panel, so they cannot name a
    dump.  The parent merges the dumps afterwards with
    :func:`merged_profile_stats`.
    """
    global _PROFILE_DIR
    _PROFILE_DIR = None if directory is None else os.fspath(directory)


def merged_profile_stats(directory: str | os.PathLike[str]
                         ) -> pstats.Stats | None:
    """Merge every per-cell ``cell-*.prof`` dump under ``directory``.

    Returns None when no dump is readable.  Individual unreadable dumps
    (e.g. a worker killed mid-write by supervision or chaos testing)
    are skipped rather than failing the merge.
    """
    stats: pstats.Stats | None = None
    for path in sorted(Path(directory).glob("cell-*.prof")):
        try:
            if stats is None:
                stats = pstats.Stats(str(path))
            else:
                stats.add(str(path))
        except Exception:  # noqa: BLE001 - partial dump, skip it
            continue
    return stats


def profile_report(stats: pstats.Stats, *, top: int = 25) -> str:
    """Top-``top`` cumulative-time lines of a merged profile, as text."""
    out = StringIO()
    stats.stream = out  # pstats writes to its stream attribute
    stats.sort_stats("cumulative").print_stats(top)
    return out.getvalue()


def _execute_job(job: SweepJob) -> SweepPoint:
    """Worker entry point: run one cell (module-level, hence picklable)."""
    specs = [ref.resolve() for ref in job.programs]
    schedule = build_fault_schedule(job.faults, job.config.seed)
    if _PROFILE_DIR is None:
        return run_point(lambda: list(specs), job.policy_factory,
                         job.wnic_spec, job.config, faults=schedule,
                         sanitize=job.sanitize)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return run_point(lambda: list(specs), job.policy_factory,
                         job.wnic_spec, job.config, faults=schedule,
                         sanitize=job.sanitize)
    finally:
        profiler.disable()
        key = run_key(specs, job.policy_factory, job.wnic_spec,
                      job.config, faults=job.faults)
        profiler.dump_stats(os.path.join(
            _PROFILE_DIR,
            f"cell-{key}-{os.getpid()}-{next(_DUMP_SEQ)}.prof"))


@dataclass(frozen=True, slots=True)
class SweepFailure:
    """Machine-readable record of one permanently failed cell."""

    index: int
    curve: str
    latency: Seconds
    bandwidth_bps: BytesPerSecond
    attempts: tuple[CellAttempt, ...]

    def to_json(self) -> dict[str, Any]:
        return {"index": self.index, "curve": self.curve,
                "latency": self.latency,
                "bandwidth_bps": self.bandwidth_bps,
                "attempts": [a.to_json() for a in self.attempts]}


def failure_manifest(failures: Sequence[SweepFailure]) -> dict[str, Any]:
    """The JSON document ``--partial`` sweeps emit alongside results."""
    return {"version": 1, "failed_cells": len(failures),
            "failures": [f.to_json() for f in failures]}


def placeholder_result(curve: str) -> RunResult:
    """The inert row standing in for a failed cell in ``partial`` mode.

    All quantities are NaN/zero so a placeholder can never be mistaken
    for (or averaged into) a real measurement unnoticed; use
    :func:`is_placeholder` to detect one.
    """
    nan = float("nan")
    return RunResult(policy=curve, end_time=nan, foreground_time=nan,
                     disk_energy=nan, wnic_energy=nan, requests=0,
                     device_requests={}, device_bytes={},
                     cache_hit_ratio=nan, disk_spinups=0,
                     disk_spindowns=0, wnic_wakeups=0)


def is_placeholder(result: RunResult) -> bool:
    """Whether a result row is a failed-cell placeholder."""
    return math.isnan(result.end_time) and result.requests == 0


class _PointStore:
    """Completed sweep points, materialised or streamed.

    Without a consumer this is a plain index -> point map the executor
    assembles curves from at the end.  With one it becomes a reorder
    buffer: each point is handed to the consumer exactly once, in
    sweep-index order regardless of completion order, then dropped — a
    streaming sweep never retains more points than its out-of-order
    window, however many cells the grid has.
    """

    def __init__(self, consumer: Callable[[int, str, SweepPoint], None]
                 | None = None) -> None:
        self._consumer = consumer
        self._held: dict[int, tuple[str, SweepPoint]] = {}
        self._next = 0
        #: total points ever added (journal end-of-sweep accounting).
        self.added = 0

    def add(self, index: int, curve: str, point: SweepPoint) -> None:
        self.added += 1
        self._held[index] = (curve, point)
        if self._consumer is None:
            return
        while self._next in self._held:
            curve, point = self._held.pop(self._next)
            self._consumer(self._next, curve, point)
            self._next += 1

    def get(self, index: int) -> SweepPoint:
        return self._held[index][1]

    @property
    def held(self) -> int:
        """Points currently buffered (0 after a streamed sweep ends)."""
        return len(self._held)


class ParallelSweepExecutor:
    """Run sweep matrices across worker processes, with optional caching,
    journaling, supervision, and graceful degradation.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every cell in-process (no pool, no
        pickling of jobs) — the zero-risk fallback path.  Retries apply
        on both paths; timeouts and chaos worker-kill/hang only exist
        on the pool path (the parent cannot SIGKILL itself).
    cache:
        Optional :class:`RunCache`.  Hits skip the simulation entirely;
        live results are stored back as they complete.
    retry:
        :class:`RetryPolicy` for failed/hung/dead cells.  Default
        :data:`~repro.experiments.supervisor.NO_RETRY` keeps the
        historical fail-on-first-error semantics.
    timeout:
        Per-cell wall-clock seconds (pool path only); a cell past its
        deadline has its worker killed and counts as a retryable
        failure.
    journal:
        Optional :class:`SweepJournal`.  Completions already present in
        the journal are skipped (``journal_hits``); new completions are
        appended crash-consistently.
    partial:
        When True, cells that exhaust their retries become placeholder
        points and :class:`SweepFailure` records (``.failures``)
        instead of raising :class:`SweepCellError`.
    chaos:
        Optional :class:`ChaosSpec` for chaos testing: worker
        kill/hang injection on the pool path plus cache-row damage
        after stores.

    Counters ``live_runs``, ``cache_hits`` and ``journal_hits``
    accumulate across calls — the perf harness uses them to prove a
    warm-cache sweep ran zero simulations, and the chaos suite to prove
    a resumed sweep re-ran nothing.  ``retries`` (by reason) and
    ``respawns`` aggregate the supervision activity.
    """

    def __init__(self, workers: int = 1, *,
                 cache: RunCache | None = None,
                 retry: RetryPolicy | None = None,
                 timeout: Seconds | None = None,
                 journal: SweepJournal | None = None,
                 partial: bool = False,
                 chaos: ChaosSpec | None = None,
                 clamp_to_cpus: bool = False,
                 sanitize: bool | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if clamp_to_cpus:
            # A pool wider than the machine only adds scheduling churn;
            # benchmarks pass a nominal width and let the host decide.
            workers = min(workers, os.cpu_count() or 1)
        self.workers = int(workers)
        self.cache = cache
        self.retry = retry or NO_RETRY
        self.timeout = timeout
        self.journal = journal
        self.partial = partial
        self.chaos = chaos
        #: per-sweep override of the ``REPRO_SANITIZE`` default; rides
        #: into every job (cache-served cells were verified when first
        #: simulated, so a warm sweep re-verifies nothing).
        self.sanitize = sanitize
        self.live_runs = 0
        self.cache_hits = 0
        self.journal_hits = 0
        self.retries: dict[str, int] = {"exception": 0, "timeout": 0,
                                        "worker-died": 0}
        self.respawns = 0
        self.failures: list[SweepFailure] = []
        #: parent-side cache-row damage injector (chaos testing); built
        #: on first use so its decision streams share the sweep seed.
        self.cache_chaos: CacheChaos | None = None

    # ------------------------------------------------------------------
    def run_sweep(self,
                  programs_factory: Callable[[], list[ProgramSpec]],
                  policy_factories: dict[str, PolicyFactory],
                  wnic_specs: Sequence[WnicSpec],
                  config: ExperimentConfig,
                  *, progress: Callable[[str], None] | None = None,
                  faults: FaultSpec | None = None,
                  consumer: Callable[[int, str, SweepPoint], None]
                  | None = None
                  ) -> dict[str, list[SweepPoint]]:
        """Run every policy across every link point.

        Same contract as :func:`repro.experiments.runner.run_sweep`:
        returns ``{policy name: [SweepPoint, ...]}`` with points in
        sweep order regardless of completion order.  If any cell fails
        permanently, the remaining cells still run to completion; then
        either the failure with the lowest sweep index is raised as
        :class:`SweepCellError` (with the worker's exception chained and
        its remote traceback attached), or — in ``partial`` mode — the
        failed cells are returned as placeholders and recorded in
        :attr:`failures`.

        With a ``consumer`` the sweep streams instead of materialising:
        each ``(index, curve, point)`` is delivered exactly once, in
        sweep order, and dropped immediately after — the return value is
        then an empty-curves dict, and peak point retention is bounded
        by the out-of-order completion window rather than the grid size.
        """
        specs = prepare_specs(tuple(programs_factory()))
        refs = tuple(ProgramRef.of(spec) for spec in specs)
        for spec, ref in zip(specs, refs, strict=True):
            stage_payload(ref.digest, spec.trace)
        if len(specs) == 1 and faults is None:
            # Build the burst plan once, parent-side: plan_for memoises
            # it process-wide, so forked workers (and every serial cell)
            # inherit the finished plan copy-on-write instead of each
            # re-walking the kernel path.  Staging it in the payload
            # registry alongside the trace makes the sharing observable.
            plan = plan_for(specs[0].compiled, config.memory_bytes,
                            config.seed)
            if plan is not None:
                stage_payload(plan_key(plan.digest, config.memory_bytes,
                                       config.seed), plan)
        factories = {name: _prepare_factory(factory)
                     for name, factory in policy_factories.items()}
        self._ensure_cache_chaos(config.seed)
        jobs: list[SweepJob] = []
        for spec in wnic_specs:
            for name, factory in factories.items():
                jobs.append(SweepJob(index=len(jobs), curve=name,
                                     programs=refs,
                                     policy_factory=factory,
                                     wnic_spec=spec, config=config,
                                     faults=faults,
                                     sanitize=self.sanitize))

        keys = self._keys_for(jobs, specs)
        if self.journal is not None:
            assert keys is not None
            self.journal.begin_sweep(
                [keys[job.index] for job in jobs],
                salt=self.cache.salt if self.cache else CODE_VERSION_SALT)

        points = _PointStore(consumer)
        failures: list[CellFailure] = []
        corrupt_before = self.cache.corrupt_rows if self.cache else 0
        pending = self._drain_journal(jobs, points, progress, keys)
        pending = self._drain_cache(pending, points, progress, keys)
        if pending:
            # Worker-count footgun guard: a pool wider than the pending
            # cell count only spawns idle processes, and a 1-cell pool
            # pays fork/pickle overhead for no concurrency — clamp, and
            # fall back to in-process execution for tiny remainders.
            pool_workers = min(self.workers, len(pending))
            if pool_workers <= 1:
                if self.workers > 1 and progress is not None:
                    progress(f"[workers] {len(pending)} pending"
                             f" cell(s); running serially instead of"
                             f" spawning {self.workers} workers")
                self._run_serial(pending, points, failures, progress,
                                 keys)
            else:
                if pool_workers < self.workers and progress is not None:
                    progress(f"[workers] clamped {self.workers} ->"
                             f" {pool_workers} for {len(pending)}"
                             " pending cell(s)")
                self._run_pool(pending, points, failures, progress,
                               keys, config.seed, pool_workers)

        if self.cache is not None and progress is not None:
            corrupt = self.cache.corrupt_rows - corrupt_before
            if corrupt:
                progress(f"[cache] {corrupt} corrupt row(s) fell back"
                         " to live simulation")

        failures.sort(key=lambda f: f.index)
        if failures:
            self._finalise_failures(jobs, failures, points, progress,
                                    keys)
        if self.journal is not None:
            self.journal.end_sweep(
                completed=points.added - len(failures),
                failed=len(failures))

        curves: dict[str, list[SweepPoint]] = {name: []
                                               for name in policy_factories}
        if consumer is None:
            for job in jobs:
                curves[job.curve].append(points.get(job.index))
        return curves

    # ------------------------------------------------------------------
    def _keys_for(self, jobs: list[SweepJob],
                  specs: tuple[ProgramSpec, ...]
                  ) -> dict[int, str] | None:
        """Content keys per cell, when caching or journaling needs them.

        Keys are computed from the resolved (prepared) specs — the
        digest-bearing values — not the :class:`ProgramRef` wire form,
        so a cell keys identically however it is shipped.
        """
        if self.cache is None and self.journal is None:
            return None
        salt = self.cache.salt if self.cache is not None \
            else CODE_VERSION_SALT
        return {job.index: run_key(specs, job.policy_factory,
                                   job.wnic_spec, job.config,
                                   faults=job.faults, salt=salt)
                for job in jobs}

    def _drain_journal(self, jobs: list[SweepJob],
                       points: _PointStore,
                       progress: Callable[[str], None] | None,
                       keys: dict[int, str] | None) -> list[SweepJob]:
        """Fill cells already completed in the journal being resumed."""
        if self.journal is None:
            return list(jobs)
        assert keys is not None
        pending: list[SweepJob] = []
        for job in jobs:
            result = self.journal.replay.completed.get(keys[job.index])
            if result is None:
                pending.append(job)
                continue
            point = SweepPoint(policy=result.policy,
                               latency=job.wnic_spec.latency,
                               bandwidth_bps=job.wnic_spec.bandwidth_bps,
                               result=result)
            points.add(job.index, job.curve, point)
            self.journal_hits += 1
            if progress is not None:
                progress(progress_line(point) + " [journal]")
        return pending

    def _drain_cache(self, jobs: list[SweepJob],
                     points: _PointStore,
                     progress: Callable[[str], None] | None,
                     keys: dict[int, str] | None) -> list[SweepJob]:
        """Fill cached cells; return the jobs that must run live."""
        if self.cache is None:
            return list(jobs)
        assert keys is not None
        pending: list[SweepJob] = []
        for job in jobs:
            result = self.cache.get(keys[job.index])
            if result is None:
                pending.append(job)
                continue
            point = SweepPoint(policy=result.policy,
                               latency=job.wnic_spec.latency,
                               bandwidth_bps=job.wnic_spec.bandwidth_bps,
                               result=result)
            points.add(job.index, job.curve, point)
            self.cache_hits += 1
            if self.journal is not None:
                self.journal.record_finish(job.index, keys[job.index],
                                           result)
            if progress is not None:
                progress(progress_line(point) + " [cached]")
        return pending

    # ------------------------------------------------------------------
    def _record(self, job: SweepJob, point: SweepPoint,
                points: _PointStore,
                progress: Callable[[str], None] | None,
                keys: dict[int, str] | None) -> None:
        points.add(job.index, job.curve, point)
        self.live_runs += 1
        if self.cache is not None:
            assert keys is not None
            path = self.cache.put(keys[job.index], point.result)
            if self.cache_chaos is not None:
                self.cache_chaos.damage(path, job.index)
        if self.journal is not None:
            assert keys is not None
            self.journal.record_finish(job.index, keys[job.index],
                                       point.result)
        if progress is not None:
            progress(progress_line(point))

    def _run_serial(self, pending: list[SweepJob],
                    points: _PointStore,
                    failures: list[CellFailure],
                    progress: Callable[[str], None] | None,
                    keys: dict[int, str] | None) -> None:
        for job in pending:
            attempts: list[CellAttempt] = []
            attempt = 1
            while True:
                if self.journal is not None and keys is not None:
                    self.journal.record_start(job.index,
                                              keys[job.index], attempt)
                try:
                    point = _execute_job(job)
                except Exception as exc:  # noqa: BLE001 - mirrored pool path
                    tb_text = traceback.format_exc()
                    will_retry = attempt <= self.retry.max_retries
                    delay = self.retry.delay(job.config.seed, job.index,
                                             attempt) if will_retry \
                        else 0.0
                    attempts.append(CellAttempt(
                        attempt=attempt, reason="exception",
                        error=repr(exc), traceback=tb_text,
                        delay=delay))
                    if will_retry:
                        self.retries["exception"] += 1
                        time.sleep(delay)
                        attempt += 1
                        continue
                    failures.append(CellFailure(index=job.index,
                                                attempts=attempts,
                                                cause=exc))
                    break
                self._record(job, point, points, progress, keys)
                break

    def _run_pool(self, pending: list[SweepJob],
                  points: _PointStore,
                  failures: list[CellFailure],
                  progress: Callable[[str], None] | None,
                  keys: dict[int, str] | None, seed: int,
                  pool_workers: int) -> None:
        by_index = {job.index: job for job in pending}
        injector = None
        if self.chaos is not None and \
                (self.chaos.kill_prob > 0 or self.chaos.hang_prob > 0):
            injector = ChaosInjector(self.chaos, seed)

        def on_start(index: int, attempt: int) -> None:
            if self.journal is not None and keys is not None:
                self.journal.record_start(index, keys[index], attempt)

        def on_retry(index: int, record: CellAttempt) -> None:
            if progress is not None:
                job = by_index[index]
                progress(f"retrying {job.curve}"
                         f" @ lat={job.wnic_spec.latency * 1e3:.0f}ms"
                         f" (attempt {record.attempt} {record.reason},"
                         f" backoff {record.delay:.2f}s)")

        def on_result(index: int, point: SweepPoint) -> None:
            self._record(by_index[index], point, points, progress, keys)

        pool = SupervisedPool(pool_workers, _execute_job,
                              retry=self.retry, timeout=self.timeout,
                              seed=seed, chaos=injector,
                              on_start=on_start, on_retry=on_retry,
                              on_result=on_result)
        _, cell_failures = pool.run(by_index)
        for reason, count in pool.retries.items():
            self.retries[reason] += count
        self.respawns += pool.respawns
        failures.extend(cell_failures)

    # ------------------------------------------------------------------
    def _finalise_failures(self, jobs: list[SweepJob],
                           failures: list[CellFailure],
                           points: _PointStore,
                           progress: Callable[[str], None] | None,
                           keys: dict[int, str] | None) -> None:
        for failure in failures:
            job = jobs[failure.index]
            if self.journal is not None and keys is not None:
                self.journal.record_fail(
                    failure.index, keys[failure.index],
                    [a.to_json() for a in failure.attempts])
            self.failures.append(SweepFailure(
                index=failure.index, curve=job.curve,
                latency=job.wnic_spec.latency,
                bandwidth_bps=job.wnic_spec.bandwidth_bps,
                attempts=tuple(failure.attempts)))
        if not self.partial:
            first = failures[0]
            job = jobs[first.index]
            raise SweepCellError(
                job.curve, job.wnic_spec,
                attempts=len(first.attempts),
                remote_traceback=first.remote_traceback) from first.cause
        for failure in failures:
            job = jobs[failure.index]
            points.add(failure.index, job.curve, SweepPoint(
                policy=job.curve, latency=job.wnic_spec.latency,
                bandwidth_bps=job.wnic_spec.bandwidth_bps,
                result=placeholder_result(job.curve)))
            if progress is not None:
                progress(f"{job.curve}"
                         f" @ lat={job.wnic_spec.latency * 1e3:.0f}ms"
                         f" bw={job.wnic_spec.bandwidth_bps / 1e6:.1f}"
                         f"MB/s FAILED after"
                         f" {len(failure.attempts)} attempt(s)"
                         " [placeholder]")

    # ------------------------------------------------------------------
    def _ensure_cache_chaos(self, seed: int) -> None:
        if self.cache_chaos is not None or self.chaos is None:
            return
        if self.chaos.corrupt_prob > 0 or self.chaos.truncate_prob > 0:
            self.cache_chaos = CacheChaos(self.chaos, seed)


def sweep_grid_size(policy_factories: dict[str, Any],
                    wnic_specs: Sequence[WnicSpec]) -> int:
    """Number of cells in a sweep matrix (for progress/benchmark sizing)."""
    return len(policy_factories) * len(wnic_specs)
