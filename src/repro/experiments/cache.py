"""Content-addressed run cache.

Every figure, ablation, and CI sweep is a matrix of (workload x policy x
link) cells, and most re-runs repeat cells that have been simulated
before with byte-identical inputs.  This module keys each
:class:`~repro.core.telemetry.RunResult` on a stable content hash of
everything that determines it — the program traces, the policy
construction, the device specs, the memory size, the seed, and a code
version salt — and persists the rows as JSON under a cache directory
(by convention ``benchmarks/results/cache/``).

Two properties make the cache safe to leave on:

* **Bit-exactness** — ``json`` serialises floats via ``repr``, which
  round-trips every IEEE-754 double exactly, so a cache hit returns the
  same bits a live simulation would produce.
* **Fail-open** — a corrupted, truncated, or alien cache file is
  treated as a miss (and the entry is re-written after the live run),
  never as an error.

:data:`CODE_VERSION_SALT` is part of every key.  Bump it whenever the
simulation's behaviour changes intentionally (the same occasions on
which ``benchmarks/pin_golden.py`` is re-run); every previously cached
row then misses and is re-simulated under the new code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import warnings
from enum import Enum
from pathlib import Path
from typing import Any

from repro.core.profile import ExecutionProfile
from repro.core.telemetry import RunResult
from repro.core.workload import ProgramSpec
from repro.devices.specs import WnicSpec
from repro.experiments.config import ExperimentConfig
from repro.faults.schedule import FaultSchedule
from repro.traces.compile import CompiledTrace
from repro.traces.trace import Trace

#: Part of every cache key.  Bump on intentional behaviour changes —
#: the same occasions on which the golden pins are regenerated.
#: (v2: fault and spindown configuration joined the key.  v3: traces
#: key on their compiled content digest instead of a full record walk,
#: and parameterised policy factories key payloads such as execution
#: profiles by digest too; every v2 row misses once and is
#: re-simulated to an identical result.)
CODE_VERSION_SALT = "flexfetch-sim-v3"


#: Per-process sequence distinguishing concurrent tmp files.  Combined
#: with the pid it makes every in-flight ``put`` write a unique path, so
#: two sweeps sharing a cache directory can never interleave bytes into
#: the same tmp file before the atomic ``replace``.
_TMP_COUNTER = itertools.count()


class RunCacheCorruptionWarning(UserWarning):
    """A cache row was corrupt and silently fell back to a live run.

    Emitted once per :class:`RunCache` instance; the per-sweep count is
    available as :attr:`RunCache.corrupt_rows` and surfaces in the
    sweep summary line.
    """


class UncacheableFactoryError(TypeError):
    """A policy factory does not describe itself for cache keying.

    Factories participate in cache keys either by being a plain policy
    class (keyed by qualified name) or by exposing a ``cache_token()``
    method returning a JSON-serialisable description of everything the
    built policy's behaviour depends on.
    """


class UncompiledTraceError(TypeError):
    """A record-level :class:`Trace` reached a digest-keyed cache path.

    Since salt v3 the run cache keys traces on their compiled content
    digest; a raw ``Trace`` has none, and silently re-walking its
    records here would undo the compile-once pipeline.  Call
    ``ProgramSpec.prepared()`` (or ``compile_trace``) before keying.
    """


def _describe(obj: Any) -> Any:
    """Canonical JSON-compatible description of a cache-key component.

    Fails closed: an object this function does not understand raises
    instead of being keyed on an incomplete description.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; two configs that differ in
        # any bit of any float therefore key differently.
        return repr(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_describe(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): _describe(v) for k, v in sorted(obj.items())}
    if isinstance(obj, CompiledTrace):
        # The digest already covers name, data records, think times
        # and the file table — the whole simulation-visible content.
        return {"__ctrace__": obj.digest}
    if isinstance(obj, Trace):
        raise UncompiledTraceError(
            "record-level Trace in a cache key; compile it first"
            " (ProgramSpec.prepared() / compile_trace)")
    if isinstance(obj, FaultSchedule):
        # A schedule is a pure function of (spec, seed); its generated
        # timelines need not (and must not) be re-serialised.
        return {
            "__faults__": _describe(obj.spec),
            "seed": obj.seed,
        }
    if isinstance(obj, ExecutionProfile):
        return {
            "__profile__": obj.name,
            "bursts": [_describe(b) for b in obj.bursts],
            "thinks": [_describe(t) for t in obj.thinks],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dc__": type(obj).__qualname__,
            **{f.name: _describe(getattr(obj, f.name))
               for f in dataclasses.fields(obj)},
        }
    raise UncacheableFactoryError(
        f"cannot build a cache key from {type(obj).__qualname__!r}")


def payload_digest(obj: Any) -> str:
    """Content digest of a describable value (profile, spec, ...).

    The sha256 of the canonical JSON :func:`_describe` produces — the
    hash a heavy payload is keyed under in the worker registry and in
    digest-based ``cache_token()`` implementations, so shipping a
    payload by reference and by value key identically.
    """
    canonical = json.dumps(_describe(obj), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def policy_token(policy_factory: Any) -> Any:
    """Cache-key description of a policy factory.

    Plain policy classes key on their qualified name; parameterised
    factories must expose ``cache_token()``.
    """
    token = getattr(policy_factory, "cache_token", None)
    if token is not None:
        return _describe(token())
    if isinstance(policy_factory, type):
        return {"__policy_class__": policy_factory.__qualname__}
    raise UncacheableFactoryError(
        f"policy factory {policy_factory!r} is neither a policy class"
        " nor provides cache_token(); pass cache=None or use a"
        " describable factory")


def run_key(programs: tuple[ProgramSpec, ...] | list[ProgramSpec],
            policy_factory: Any,
            wnic_spec: WnicSpec,
            config: ExperimentConfig,
            *, faults: Any = None,
            spindown: Any = None,
            salt: str = CODE_VERSION_SALT) -> str:
    """Stable content hash identifying one simulation cell.

    Only inputs that reach the simulation participate: the sweep grids
    on ``config`` are deliberately excluded, so the same cell shared by
    two differently shaped sweeps hits the same entry.  ``faults`` and
    ``spindown`` are keyed explicitly — as ``None`` for the common
    fault-free/default-DPM cell — because both change the
    :class:`RunResult`; omitting them once let a ``--faults`` run
    return a stale cached no-fault row.
    """
    description = {
        "salt": salt,
        "programs": [_describe(spec) for spec in programs],
        "policy": policy_token(policy_factory),
        "wnic": _describe(wnic_spec),
        "disk": _describe(config.disk_spec),
        "memory_bytes": config.memory_bytes,
        "seed": config.seed,
        "faults": _describe(faults),
        "spindown": _describe(spindown),
    }
    canonical = json.dumps(description, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RunCache:
    """Content-addressed, on-disk store of :class:`RunResult` rows.

    Parameters
    ----------
    root:
        Cache directory (created on first :meth:`put`).  The repo
        convention is ``benchmarks/results/cache/``.
    salt:
        Code-version salt mixed into every key.
    """

    def __init__(self, root: str | Path, *,
                 salt: str = CODE_VERSION_SALT) -> None:
        self.root = Path(root)
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: corrupt/alien rows encountered (a subset of ``misses``).
        self.corrupt_rows = 0
        self._warned_corrupt = False

    # ------------------------------------------------------------------
    def key_for(self, programs: tuple[ProgramSpec, ...] | list[ProgramSpec],
                policy_factory: Any, wnic_spec: WnicSpec,
                config: ExperimentConfig, *,
                faults: Any = None, spindown: Any = None) -> str:
        """Cache key of one cell under this cache's salt."""
        return run_key(programs, policy_factory, wnic_spec, config,
                       faults=faults, spindown=spindown, salt=self.salt)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> RunResult | None:
        """Cached result for ``key``, or None (corrupt rows are misses)."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            fields = payload["result"]
            expected = {f.name for f in dataclasses.fields(RunResult)}
            if set(fields) != expected:
                raise ValueError("field set mismatch")
            result = RunResult(**fields)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError):
            # Corrupted or alien file: fall back to a live simulation —
            # but never silently.  The row is counted, surfaced in the
            # sweep summary, and warned about once per cache instance.
            self.misses += 1
            self.corrupt_rows += 1
            if not self._warned_corrupt:
                self._warned_corrupt = True
                warnings.warn(
                    f"run cache {self.root}: corrupt row"
                    f" {path.name} treated as a miss (the cell is"
                    " re-simulated; see RunCache.corrupt_rows for the"
                    " per-sweep count)",
                    RunCacheCorruptionWarning, stacklevel=2)
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> Path:
        """Persist one result row; returns the file written.

        A result holding NaN or ±inf is refused with ``ValueError``
        before anything touches the disk: such a row would be served as
        a valid hit to every later sweep.
        """
        text = json.dumps({
            "salt": self.salt,
            "key": key,
            "result": dataclasses.asdict(result),
        }, sort_keys=True, indent=1, allow_nan=False)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        # A per-process unique tmp name: ``with_suffix(".tmp")`` was
        # deterministic, so two sweeps sharing a cache dir could
        # interleave writes into the same tmp file.  fsync before the
        # atomic replace so a visible row is never half-written even
        # across a crash.
        tmp = self.root / f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RunCache root={str(self.root)!r} hits={self.hits}"
                f" misses={self.misses} stores={self.stores}>")
