"""Lightweight per-operation tracing: spans, events, a ring buffer, JSONL.

The tracer answers the question every benchmark report leaves open:
*where did the wall time actually go* — record decode vs SQL round trip
vs busy-wait backoff vs think time.  Instrumented call sites live in the
kernel (:meth:`repro.core.session.Session.measure`), the SQLite
backend's query paths, the scenario executor and the process-parallel
worker; each one emits a named record with free-form attributes.

Zero overhead when off
----------------------

Tracing is **disabled by default** and every instrumented call site is
guarded by the module flag::

    from repro.obs import trace
    ...
    if trace.enabled:
        trace.emit("sqlite.read_many", wall, oids=len(chunk))

so a traced-off run executes no tracer code at all — not even an empty
function call — on the hot paths the kernel batching work optimized.
``tests/obs/test_trace.py`` pins this by replacing :func:`emit` and
:func:`span` with spies and asserting a full ``ocb run`` never calls
them.

Two emission styles
-------------------

* :func:`emit` — post-hoc: the caller already measured the wall time
  (usually through :class:`~repro.core.session.Measurement`) and
  reports it.  The cheap style for hot paths.
* :func:`span` — a context manager for structural sections (a protocol
  phase, one scenario operation, worker setup): it times the body and
  tracks nesting depth, so records emitted inside carry ``depth + 1``
  and a JSONL trace reconstructs the call tree.

Collection
----------

:func:`enable` installs a ring-buffered :class:`TraceCollector`
(bounded memory, oldest records dropped) and, optionally, a
:class:`JsonlSink` that appends every record to a file as one JSON
object per line — the ``--trace FILE`` flag of the CLI.  :func:`summary`
reports per-name count/total/mean rows from running aggregates the
collector keeps for every record, so evicted records still count.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.latency import LatencyHistogram

__all__ = [
    "enabled",
    "TraceRecord",
    "TraceCollector",
    "JsonlSink",
    "enable",
    "disable",
    "emit",
    "span",
    "active_collector",
    "summary",
]

#: The one guard every instrumented call site checks before touching the
#: tracer.  Toggled only by :func:`enable` / :func:`disable`.
enabled = False

#: Default ring-buffer capacity (records, not bytes).
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One completed span or event."""

    name: str
    #: Wall-clock duration in seconds (0.0 for instantaneous events).
    wall_seconds: float
    #: Nesting depth at emission time (0 = top level).
    depth: int
    #: ``time.time()`` at emission — wall timestamps order a JSONL file.
    timestamp: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready mapping (the JSONL line format)."""
        return {
            "name": self.name,
            "wall_ms": self.wall_seconds * 1e3,
            "depth": self.depth,
            "ts": self.timestamp,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "TraceRecord":
        """Rebuild from a JSONL line's mapping."""
        return cls(name=str(spec["name"]),
                   wall_seconds=float(spec["wall_ms"]) / 1e3,  # type: ignore
                   depth=int(spec["depth"]),  # type: ignore
                   timestamp=float(spec["ts"]),  # type: ignore
                   attrs=dict(spec.get("attrs") or {}))  # type: ignore


class TraceCollector:
    """A bounded, thread-safe ring buffer of :class:`TraceRecord`.

    ``capacity`` bounds memory: the collector keeps the newest records
    and counts what it dropped (``dropped``), so a million-operation run
    with tracing on cannot exhaust memory — the JSONL sink is the
    unbounded archive, the ring buffer the live window.  Alongside the
    ring, one :class:`~repro.obs.latency.LatencyHistogram` per record
    name folds every record ever seen (count, total, tail), which is
    what :func:`summary` reports.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: "deque[TraceRecord]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total = 0
        self._by_name: Dict[str, LatencyHistogram] = {}

    def record(self, record: TraceRecord) -> None:
        """Append one record (oldest evicted beyond capacity)."""
        with self._lock:
            self._records.append(record)
            self.total += 1
            histogram = self._by_name.get(record.name)
            if histogram is None:
                histogram = self._by_name[record.name] = LatencyHistogram()
            histogram.record(record.wall_seconds)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer."""
        return max(0, self.total - len(self._records))

    def records(self) -> List[TraceRecord]:
        """A snapshot of the buffered records, oldest first."""
        with self._lock:
            return list(self._records)

    def by_name(self) -> Dict[str, LatencyHistogram]:
        """Per-name wall-time histograms over every record seen."""
        with self._lock:
            return dict(self._by_name)

    def __len__(self) -> int:
        return len(self._records)


class JsonlSink:
    """Appends every record to *path*, one JSON object per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.written = 0

    def write(self, record: TraceRecord) -> None:
        """Serialize one record as a JSONL line."""
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self.written += 1

    def close(self) -> None:
        """Flush and release the file handle."""
        with self._lock:
            self._handle.close()


def read_jsonl(path: str) -> List[TraceRecord]:
    """Parse a JSONL trace file back into records."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_dict(json.loads(line)))
    return records


# ---------------------------------------------------------------------- #
# Module state
# ---------------------------------------------------------------------- #

_collector: Optional[TraceCollector] = None
_sink: Optional[JsonlSink] = None
_local = threading.local()


def _depth() -> int:
    return getattr(_local, "depth", 0)


def enable(collector: Optional[TraceCollector] = None,
           sink_path: Optional[str] = None) -> TraceCollector:
    """Turn tracing on; returns the active collector.

    Re-enabling replaces the collector and sink (the previous sink is
    closed).  ``sink_path`` additionally streams every record to a JSONL
    file.
    """
    global enabled, _collector, _sink
    if _sink is not None:
        _sink.close()
    _collector = collector if collector is not None else TraceCollector()
    _sink = JsonlSink(sink_path) if sink_path else None
    enabled = True
    return _collector


def disable() -> Optional[TraceCollector]:
    """Turn tracing off; returns the collector that was active."""
    global enabled, _collector, _sink
    enabled = False
    collector, _collector = _collector, None
    if _sink is not None:
        _sink.close()
        _sink = None
    return collector


def active_collector() -> Optional[TraceCollector]:
    """The collector records are flowing into (``None`` when off)."""
    return _collector


def emit(name: str, wall_seconds: float = 0.0, **attrs: object) -> None:
    """Record one already-measured span (or an instantaneous event).

    Callers on hot paths must guard with ``if trace.enabled:`` — this
    function also no-ops when tracing is off, but the guard is what
    keeps the disabled cost at a single attribute read.
    """
    if not enabled:
        return
    record = TraceRecord(name=name, wall_seconds=wall_seconds,
                         depth=_depth(), timestamp=time.time(),
                         attrs=attrs)
    if _collector is not None:
        _collector.record(record)
    if _sink is not None:
        _sink.write(record)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Time a structural section; nested emissions carry ``depth + 1``.

    The record is emitted on exit with the measured wall time and the
    depth the span was *entered* at, so a JSONL file reconstructs the
    call tree by depth.
    """
    if not enabled:
        yield
        return
    entered = _depth()
    _local.depth = entered + 1
    start = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - start
        _local.depth = entered
        record = TraceRecord(name=name, wall_seconds=wall, depth=entered,
                             timestamp=time.time(), attrs=attrs)
        if _collector is not None:
            _collector.record(record)
        if _sink is not None:
            _sink.write(record)


def summary(collector: Optional[TraceCollector] = None
            ) -> List[Tuple[str, int, float, float, float]]:
    """Per-name ``(name, count, total_seconds, mean_seconds,
    p999_seconds)`` rows.

    Sorted by total wall time, descending — the "where did the time go"
    decomposition of a traced run.  Rows cover every record the
    collector has seen, not just the ring buffer's window.  The P99.9
    column comes from each name's bounded log-bucketed histogram
    (relative error <= 1 %), so a stall that one mean would average away
    still shows.
    """
    collector = collector if collector is not None else _collector
    if collector is None:
        return []
    rows = [(name, histogram.count, histogram.total, histogram.mean,
             histogram.percentile(99.9))
            for name, histogram in collector.by_name().items()]
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows
