"""Crash-consistent sweep journal.

An append-only JSONL log of sweep progress, written by the sweep
executor and replayed by ``flexfetch sweep --resume``: every completed
cell's :class:`~repro.core.telemetry.RunResult` is journaled (with
``repr``-exact floats, like the run cache), so resuming an interrupted
sweep skips completed cells and reproduces the final grid
**bit-identically** without re-running them.

Crash consistency rests on three properties:

* **append-only + fsync** — every record is one ``\\n``-terminated JSON
  line, flushed and ``fsync``'d before the write returns, so after a
  parent crash (even SIGKILL or power loss) the journal holds every
  completion that was acknowledged, plus at most one torn final line;
* **torn-tail tolerance** — :func:`load_journal` ignores a final line
  that does not parse (the one legal torn write); garbage *before* the
  final line means the file is not an intact journal and raises
  :class:`JournalError` instead of silently resuming from it;
* **replay idempotency** — cells are identified by the same
  content-addressed key as the run cache
  (:func:`repro.experiments.cache.run_key`), so replay is keyed on
  *what the cell is*, never on grid position: resuming any prefix of a
  journal, any number of times, converges to the same grid.

Record kinds (the ``kind`` field of each line):

``begin``
    One per ``run_sweep`` call: journal format version, sweep id (hash
    of the sorted cell keys), cell count, and the cache salt.
``start``
    One per dispatched attempt: cell index, key, attempt number.
``finish``
    One per completed cell: key plus the full result row.  The presence
    of ``finish`` is what "completed" means — a crash between ``start``
    and ``finish`` re-runs the cell.
``fail``
    One per cell that exhausted its retry budget (``--partial`` runs
    continue past these): key plus the per-attempt failure history.
``end``
    One per completed ``run_sweep`` call, with completion counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.telemetry import RunResult
from repro.units import Bytes

#: Bumped when the journal's on-disk format changes incompatibly.
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal file could not be read or is not an intact journal."""


def sweep_id(keys: list[str]) -> str:
    """Stable identity of one sweep: a hash of its sorted cell keys."""
    canonical = json.dumps(sorted(keys), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _result_payload(result: RunResult) -> dict[str, Any]:
    return dataclasses.asdict(result)


def _result_from_payload(payload: Any) -> RunResult:
    if not isinstance(payload, dict):
        raise JournalError("finish record result is not an object")
    expected = {f.name for f in dataclasses.fields(RunResult)}
    if set(payload) != expected:
        raise JournalError("finish record result field set mismatch")
    return RunResult(**payload)


@dataclass
class JournalReplay:
    """Everything recoverable from an existing journal file."""

    #: completed cells: content key -> bit-identical result row.
    completed: dict[str, RunResult] = field(default_factory=dict)
    #: cells recorded as permanently failed, key -> attempt history.
    failed: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    #: ``begin`` records seen (one per journaled ``run_sweep`` call).
    sweeps: list[dict[str, Any]] = field(default_factory=list)
    #: attempts dispatched but never finished (crash evidence).
    started: int = 0
    #: whether the final line was torn and ignored.
    torn_tail: bool = False
    #: length of the intact prefix; a resuming writer truncates the
    #: torn tail back to this before appending.
    intact_bytes: Bytes = 0


def load_journal(path: str | Path) -> JournalReplay:
    """Replay a journal file into a :class:`JournalReplay`.

    Tolerates exactly one torn (unparseable or truncated) final line —
    the legal crash artefact of an append that never completed.  Any
    earlier unparseable line raises :class:`JournalError`.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    replay = JournalReplay()
    lines = raw.split(b"\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is a torn tail candidate.
    body, tail = lines[:-1], lines[-1]
    offset = 0
    for lineno, line in enumerate(body, start=1):
        if not line.strip():
            offset += len(line) + 1
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if lineno == len(body) and not tail:
                # Torn final line (crash mid-append): ignore it and do
                # not count its bytes as intact.
                replay.torn_tail = True
                break
            raise JournalError(
                f"{path}:{lineno}: not a journal record") from exc
        _apply(record, replay, path, lineno)
        offset += len(line) + 1
    if tail:
        replay.torn_tail = True
    replay.intact_bytes = offset
    return replay


def _apply(record: Any, replay: JournalReplay, path: Path,
           lineno: int) -> None:
    if not isinstance(record, dict) or "kind" not in record:
        raise JournalError(f"{path}:{lineno}: not a journal record")
    kind = record["kind"]
    if kind == "begin":
        if record.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{path}:{lineno}: journal version"
                f" {record.get('version')!r} is not {JOURNAL_VERSION}")
        replay.sweeps.append(record)
    elif kind == "start":
        replay.started += 1
    elif kind == "finish":
        try:
            key = record["key"]
            result = _result_from_payload(record["result"])
        except (KeyError, TypeError) as exc:
            raise JournalError(
                f"{path}:{lineno}: malformed finish record") from exc
        replay.completed[key] = result
        replay.failed.pop(key, None)   # a later success supersedes
    elif kind == "fail":
        key = record.get("key")
        if isinstance(key, str) and key not in replay.completed:
            replay.failed[key] = list(record.get("attempts", []))
    elif kind != "end":
        raise JournalError(
            f"{path}:{lineno}: unknown record kind {kind!r}")


class SweepJournal:
    """Writer of one journal file (append mode, fsync per record).

    Opening an existing path *resumes* it: prior records are replayed
    into :attr:`replay` (so the executor can skip completed cells) and
    new records are appended after them.  A torn final line from a
    crashed writer is repaired on open by truncating the file back to
    its intact prefix.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.replay = load_journal(self.path) if self.path.exists() \
            else JournalReplay()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Long-lived append handle, closed via close()/__exit__.
        self._fh = open(self.path, "ab")  # noqa: SIM115
        self._closed = False
        if self.replay.torn_tail:
            self._fh.truncate(self.replay.intact_bytes)
            self.replay.torn_tail = False

    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        if self._closed:
            raise JournalError("journal is closed")
        # allow_nan=False: a NaN/inf row raises here, before the write,
        # so a resume never replays a non-finite result as completed.
        line = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          allow_nan=False).encode("utf-8")
        self._fh.write(line + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def begin_sweep(self, keys: list[str], *, salt: str,
                    label: str = "") -> None:
        """Record the start of one ``run_sweep`` call over ``keys``."""
        self._append({"kind": "begin", "version": JOURNAL_VERSION,
                      "sweep_id": sweep_id(keys), "cells": len(keys),
                      "salt": salt, "label": label})

    def record_start(self, index: int, key: str, attempt: int) -> None:
        self._append({"kind": "start", "index": index, "key": key,
                      "attempt": attempt})

    def record_finish(self, index: int, key: str,
                      result: RunResult) -> None:
        self._append({"kind": "finish", "index": index, "key": key,
                      "result": _result_payload(result)})
        self.replay.completed[key] = result

    def record_fail(self, index: int, key: str,
                    attempts: list[dict[str, Any]]) -> None:
        self._append({"kind": "fail", "index": index, "key": key,
                      "attempts": attempts})

    def end_sweep(self, *, completed: int, failed: int) -> None:
        self._append({"kind": "end", "completed": completed,
                      "failed": failed})

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> SweepJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
