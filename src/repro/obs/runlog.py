"""The run log: the harness's one observability stream.

A paper sweep fans trace generation out across worker processes; anything
those workers print is interleaved garbage at best and lost at worst. The
run log replaces prints with schema-versioned event *records* — plain
dicts, picklable, JSON-serializable — collected per process and merged in
the parent, so one command produces one ordered stream.

Every harness observation is a record. A stage (trace generation,
classification, lowering, re-timing) is a :meth:`RunLog.context` scope,
i.e. a ``<name>.begin``/``<name>.end`` pair whose extent is the stage's
wall time; :func:`repro.obs.perfetto.trace_events_from_runlog` pairs them
into Perfetto slices. Measured quantities ride on events as attrs
(``impl.trace_ready`` carries the record count and generation seconds).

The process-wide :class:`RunLog` starts *disabled*: an ``event()`` call
then records nothing — but ``warn`` and ``error`` events always print one
line to stderr, so a fault fallback is never silent. Sweep tasks join their process's log to the
parent's ``trace_id`` and ship back the records they added; the parent
``adopt()``-s them. ``merged_records`` orders the combined stream by
``(ts, pid, seq)`` — wall-clock first, then a per-process sequence number
that breaks same-timestamp ties deterministically.

The on-disk form is JSON Lines: a header line carrying the schema tag,
then one line per record. :func:`load_and_validate` hard-fails on drift,
and ``python -m repro.obs.check`` recognizes the header (rule O005).
"""

from __future__ import annotations

import json
import os
import sys
import time
import uuid
from contextlib import contextmanager
from pathlib import Path

#: bump on any backwards-incompatible run-log layout change.
RUNLOG_SCHEMA = "repro.runlog/1"

#: record severity levels, least to most severe.
LEVELS = ("debug", "info", "warn", "error")

#: levels that also print one stderr line, recording or not.
_LOUD = ("warn", "error")

#: keys every record line must carry (validator contract).
_RECORD_REQUIRED = ("ts", "pid", "seq", "name", "level")


def new_trace_id() -> str:
    """Fresh 16-hex-digit trace id shared by one command's processes."""
    return uuid.uuid4().hex[:16]


class RunLog:
    """Collects ordered event records; one per process.

    A sweep task sets its process's log to the parent's trace id, so
    every record of one command — whichever process emitted it — carries
    the same correlation key.
    """

    def __init__(self, *, enabled: bool = True,
                 trace_id: str | None = None) -> None:
        self.enabled = enabled
        self.trace_id = trace_id or new_trace_id()
        self.records: list[dict] = []
        self._seq = 0
        self._ctx: list[str] = []

    def event(self, name: str, *, level: str = "info",
              **attrs) -> dict | None:
        """Record one event; returns the record (or ``None`` when the log
        is disabled, so callers never pay for attr assembly). ``warn`` and
        ``error`` events also print one line to stderr either way."""
        if level in _LOUD:
            detail = " ".join(f"{k}={v}" for k, v in attrs.items())
            print(f"repro {level}: {name} {detail}".rstrip(), file=sys.stderr)
        if not self.enabled:
            return None
        if level not in LEVELS:
            raise ValueError(f"unknown run-log level {level!r}")
        rec = {
            "ts": time.time(),
            "pid": os.getpid(),
            "seq": self._seq,
            "trace": self.trace_id,
            "name": name,
            "level": level,
        }
        self._seq += 1
        if self._ctx:
            rec["ctx"] = "/".join(self._ctx)
        if attrs:
            rec["attrs"] = attrs
        self.records.append(rec)
        return rec

    @contextmanager
    def context(self, name: str, **attrs):
        """Scope records under ``name``: emits ``<name>.begin`` /
        ``<name>.end`` events (the scope's wall-time extent, exported as
        one Perfetto slice) and prefixes the ``ctx`` path of everything
        recorded inside."""
        if not self.enabled:
            yield
            return
        self.event(f"{name}.begin", **attrs)
        self._ctx.append(name)
        try:
            yield
        finally:
            self._ctx.pop()
            self.event(f"{name}.end")

    def adopt(self, records: list[dict]) -> None:
        """Fold records a sweep task moved out of its process's log (a
        worker's, or this one's) into this log; their timestamps, pids and
        seqs are preserved."""
        if not self.enabled:
            return
        self.records.extend(records)

    def merged_records(self) -> list[dict]:
        """All records in one deterministic order: wall clock, then pid,
        then the per-process sequence number (tie-break within one
        clock quantum)."""
        return sorted(self.records,
                      key=lambda r: (r["ts"], r["pid"], r["seq"]))

    def clear(self) -> None:
        self.records.clear()
        self._seq = 0
        self._ctx.clear()

    def reset_context(self) -> int:
        """Figure-boundary repair: close any dangling context scopes (a
        figure that did not unwind) with their ``.end`` records, keeping
        everything already recorded. Returns the number closed; nonzero
        also emits a ``figure.dangling_spans`` warning."""
        dangling = len(self._ctx)
        while self._ctx:
            name = self._ctx.pop()
            self.event(f"{name}.end")
        if dangling:
            self.event("figure.dangling_spans", level="warn", count=dangling)
        return dangling


#: process-wide run log, disabled by default (the CLI enables it for
#: ``--emit-runlog`` and ``--emit-trace``; sweep tasks in pool workers
#: join theirs to the parent's trace id).
_RUNLOG = RunLog(enabled=False)


def get_runlog() -> RunLog:
    """The process-wide run log."""
    return _RUNLOG


def set_logging(enabled: bool, *, trace_id: str | None = None) -> RunLog:
    """Enable/disable the process-wide run log; returns it (cleared and
    re-keyed when switching on, so an export contains exactly one
    command's records under one trace id)."""
    if enabled and not _RUNLOG.enabled:
        _RUNLOG.clear()
        _RUNLOG.trace_id = trace_id or new_trace_id()
    _RUNLOG.enabled = enabled
    return _RUNLOG


def build_header(log: RunLog, **meta) -> dict:
    """The JSONL header line: schema tag, trace id, record count."""
    header = {
        "schema": RUNLOG_SCHEMA,
        "trace": log.trace_id,
        "created_unix": time.time(),
        "records": len(log.records),
    }
    header.update(meta)
    return header


def write_runlog(path, log: RunLog, **meta) -> Path:
    """Validate and write one merged JSONL run log; returns the path."""
    header = build_header(log, **meta)
    lines = [header] + log.merged_records()
    validate_runlog_lines(lines)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return p


def validate_runlog_lines(lines: list[dict]) -> None:
    """Raise ``ValueError`` unless ``lines`` form a valid run log.

    Checks: a schema-tagged header first, the advertised record count,
    every record's required keys/types, known severity levels, and one
    trace id across header and records (the cross-process correlation
    contract).
    """
    if not lines:
        raise ValueError("run log is empty (missing header line)")
    header = lines[0]
    if not isinstance(header, dict):
        raise ValueError("run-log header must be a JSON object")
    if header.get("schema") != RUNLOG_SCHEMA:
        raise ValueError(
            f"unsupported run-log schema {header.get('schema')!r} "
            f"(expected {RUNLOG_SCHEMA})"
        )
    trace = header.get("trace")
    if not isinstance(trace, str) or not trace:
        raise ValueError("run-log header 'trace' must be a non-empty string")
    records = lines[1:]
    if header.get("records") != len(records):
        raise ValueError(
            f"run-log header advertises {header.get('records')!r} records, "
            f"file has {len(records)}"
        )
    last_key = None
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if not isinstance(rec, dict):
            raise ValueError(f"{where} is not an object")
        for key in _RECORD_REQUIRED:
            if key not in rec:
                raise ValueError(f"{where} missing required key {key!r}")
        if not isinstance(rec["ts"], (int, float)):
            raise ValueError(f"{where} ts must be a number")
        if not isinstance(rec["pid"], int) or not isinstance(rec["seq"], int):
            raise ValueError(f"{where} pid/seq must be integers")
        if not isinstance(rec["name"], str) or not rec["name"]:
            raise ValueError(f"{where} name must be a non-empty string")
        if rec["level"] not in LEVELS:
            raise ValueError(f"{where} has unknown level {rec['level']!r}")
        if rec.get("trace") != trace:
            raise ValueError(
                f"{where} trace {rec.get('trace')!r} does not match the "
                f"header trace {trace!r}"
            )
        key = (rec["ts"], rec["pid"], rec["seq"])
        if last_key is not None and key < last_key:
            raise ValueError(f"{where} out of (ts, pid, seq) order")
        last_key = key


def load_and_validate(path) -> list[dict]:
    """Read a JSONL run log and validate it; returns the parsed lines
    (header first)."""
    lines = []
    with Path(path).open(encoding="utf-8") as fh:
        for n, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError as e:
                raise ValueError(f"line {n} is not valid JSON: {e}") from e
    validate_runlog_lines(lines)
    return lines
