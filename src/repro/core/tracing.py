"""Dapper-style span tracing for the durable write and read paths.

The metrics layer answers "how many / how fast on average"; this module
answers "where did *this* slow batch spend its time".  It is
dependency-free (stdlib only) and built from four pieces:

* a :class:`Tracer` producing **spans** — trace id, span id, parent id,
  name, wall start, duration, attributes — via the :meth:`Tracer.span`
  context manager, with ContextVar-based implicit parenting (a span
  opened while another is active becomes its child, including across
  the ``with`` nesting of the WAL/seal/query instrumentation sites);
* **sampling**: the decision is made once per trace at the root
  (``sample_rate``) and propagated to every descendant, so a trace is
  always recorded whole or not at all;
* a bounded in-memory **ring buffer** of finished spans plus pluggable
  exporters — :class:`JsonlSpanExporter` writes one flushed line per
  span (a single unbuffered ``write`` ending in ``\\n``, so a SIGKILL
  can tear at most the final line) and :func:`perfetto_trace` converts
  spans to Chrome trace-event JSON for flame-graph viewing in Perfetto
  / ``chrome://tracing``;
* a **slow-op log**: any span over ``slow_threshold_ms`` is recorded
  with its full local ancestry and warned through the ``repro`` logger.

Cross-process propagation: a context is just ``(trace_id, span_id)``.
:func:`current_context` captures it on the coordinator side; passing it
as ``span(..., parent=ctx)`` in a writer process stitches the writer's
spans into the coordinator's trace (see
:mod:`repro.core.parallel_ingest`, which carries the context in its
work frames).

Maintenance paths are traced too: each compaction merge pass wraps its
merge in ``compact.merge`` (inputs, bytes read) and the commit in
``compact.manifest_swap`` (segments before/after), and offline shard
rebalancing emits one ``rebalance.shard`` span per staged shard
(shard index, record count) — see :mod:`repro.core.compaction`.

Enabling: pass a :class:`Tracer` explicitly (``create_store("durable",
tracer=...)``), install one process-wide with :func:`set_tracer`, or
export ``REPRO_TRACE=/path/to/dir`` (plus optional
``REPRO_TRACE_SAMPLE`` / ``REPRO_TRACE_SLOW_MS``) — the first traced
operation then lazily builds a process tracer writing JSONL span logs
into that directory.  With no tracer installed every instrumentation
site short-circuits to a shared no-op span.
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import os
import random
import threading
import time
from collections import deque
from pathlib import Path

from repro.core import metrics as _metrics
from repro.core.errors import InvalidParameterError

__all__ = [
    "JsonlSpanExporter",
    "Tracer",
    "current_context",
    "current_trace_id",
    "get_tracer",
    "load_trace",
    "perfetto_trace",
    "read_span_file",
    "record_span",
    "render_summary",
    "set_tracer",
    "span",
    "stitch_spans",
    "summarize_spans",
]

_logger = logging.getLogger("repro.core.tracing")

#: Ring-buffer capacity for finished spans (per tracer).
DEFAULT_RING_SIZE = 4096

#: Bounded slow-op log length (per tracer).
DEFAULT_SLOW_OPS = 256


_ID_RANDOM = random.Random(os.urandom(16))
_ID_PID = os.getpid()


def _new_id(nbytes: int) -> str:
    # A module-level PRNG is ~2x cheaper per id than os.urandom; the
    # pid check reseeds after fork so writer processes don't replay the
    # coordinator's id stream (collisions would corrupt stitched
    # traces).
    global _ID_RANDOM, _ID_PID
    pid = os.getpid()
    if pid != _ID_PID:
        _ID_RANDOM = random.Random(os.urandom(16))
        _ID_PID = pid
    return "%0*x" % (nbytes * 2, _ID_RANDOM.getrandbits(nbytes * 8))


class _SpanContext:
    """The ambient trace position: ids, sampling bit, ancestry link."""

    __slots__ = ("trace_id", "span_id", "sampled", "name", "parent")

    def __init__(self, trace_id, span_id, sampled, name, parent):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled
        self.name = name
        self.parent = parent  # _SpanContext | None (local ancestry)

    def ancestry(self) -> list[str]:
        names: list[str] = []
        node = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        names.reverse()
        return names


_CURRENT: contextvars.ContextVar[_SpanContext | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """One in-flight span; created by :meth:`Tracer.span`."""

    __slots__ = (
        "_tracer", "_name", "_attributes", "_parent",
        "_context", "_token", "_start_wall", "_start_perf",
    )

    def __init__(self, tracer, name, parent, attributes):
        self._tracer = tracer
        self._name = name
        self._parent = parent  # explicit (trace_id, span_id) or None
        self._attributes = attributes
        self._context = None
        self._token = None
        self._start_wall = 0.0
        self._start_perf = 0.0

    def set_attribute(self, key: str, value) -> None:
        self._attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        ambient = _CURRENT.get()
        if self._parent is not None:
            trace_id, parent_id = self._parent
            sampled = True
            local_parent = None
        elif ambient is not None:
            trace_id = ambient.trace_id
            parent_id = ambient.span_id
            sampled = ambient.sampled
            local_parent = ambient
        else:
            trace_id = _new_id(8)
            parent_id = None
            sampled = self._tracer._sample()
            local_parent = None
        self._context = _SpanContext(
            trace_id, _new_id(4), sampled, self._name, local_parent
        )
        if self._parent is not None:
            # Remote parent: ancestry below starts at the carried span.
            self._context.parent = None
        self._token = _CURRENT.set(self._context)
        if sampled:
            self._start_wall = time.time()
            self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        context = self._context
        _CURRENT.reset(self._token)
        if context is not None and context.sampled:
            duration = time.perf_counter() - self._start_perf
            self._tracer._finish(
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=(
                    self._parent[1]
                    if self._parent is not None
                    else (
                        context.parent.span_id
                        if context.parent is not None
                        else None
                    )
                ),
                name=self._name,
                start=self._start_wall,
                duration=duration,
                attributes=self._attributes,
                status="error" if exc_type is not None else "ok",
                ancestry=context.ancestry,
            )
        return False


#: Escaped-string cache for the small closed sets (span names, process
#: tags, statuses) that repeat on every line; bounded so adversarial
#: cardinality cannot grow it without limit.
_ENCODED_STRINGS: dict[str, str] = {}


def _json_string(value: str) -> str:
    encoded = _ENCODED_STRINGS.get(value)
    if encoded is None:
        encoded = json.dumps(value)
        if len(_ENCODED_STRINGS) < 4096:
            _ENCODED_STRINGS[value] = encoded
    return encoded


def _encode_attributes(attributes: dict) -> str:
    # json.dumps carries ~3us of fixed per-call overhead even for a
    # one-entry dict, so the common scalar attribute types are
    # formatted directly; anything richer falls back.
    parts = []
    for key, value in attributes.items():
        kind = type(value)
        if kind is bool:
            encoded = "true" if value else "false"
        elif kind is int:
            encoded = "%d" % value
        elif kind is str:
            encoded = _json_string(value)
        elif kind is float and value - value == 0.0:
            encoded = repr(value)
        elif value is None:
            encoded = "null"
        else:
            return json.dumps(attributes, separators=(",", ":"))
        parts.append("%s:%s" % (_json_string(key), encoded))
    return "{%s}" % ",".join(parts)


def _encode_span(span_dict: dict) -> str:
    """Compact-JSON encode one span.

    ``json.dumps`` of the whole dict dominates per-span export cost
    (~4x the file write), so the fixed schema that
    :meth:`Tracer._finish` produces is formatted by hand — ids are
    hex so they never need escaping — and anything that doesn't match
    the schema falls back to ``json.dumps``.
    """
    n = len(span_dict)
    if n != 10 and not (n == 11 and "attributes" in span_dict):
        return json.dumps(span_dict, separators=(",", ":"))
    try:
        trace_id = span_dict["trace_id"]
        span_id = span_dict["span_id"]
        parent_id = span_dict["parent_id"]
        if not (
            trace_id.isalnum()
            and span_id.isalnum()
            and (parent_id is None or parent_id.isalnum())
        ):
            return json.dumps(span_dict, separators=(",", ":"))
        line = (
            '{"trace_id":"%s","span_id":"%s","parent_id":%s,'
            '"name":%s,"start":%r,"duration":%r,"process":%s,'
            '"pid":%d,"tid":%d,"status":%s'
        ) % (
            trace_id,
            span_id,
            "null" if parent_id is None else '"%s"' % parent_id,
            _json_string(span_dict["name"]),
            float(span_dict["start"]),
            float(span_dict["duration"]),
            _json_string(span_dict["process"]),
            span_dict["pid"],
            span_dict["tid"],
            _json_string(span_dict["status"]),
        )
        if n == 11:
            line += ',"attributes":%s' % _encode_attributes(
                span_dict["attributes"]
            )
        return line + "}"
    except (AttributeError, KeyError, TypeError, ValueError):
        return json.dumps(span_dict, separators=(",", ":"))


class JsonlSpanExporter:
    """Append spans to a JSONL file, one flushed line per span.

    The file is opened unbuffered and each span is a single ``write``
    of a complete line, so a process kill can tear at most the line in
    flight — :func:`read_span_file` discards such a torn tail and
    everything before it still parses.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "ab", buffering=0)

    def export(self, span_dict: dict) -> None:
        line = _encode_span(span_dict) + "\n"
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class Tracer:
    """Produces, buffers and exports spans for one process.

    Thread-safe: the ingest thread, the background seal thread and any
    reader threads may all finish spans concurrently.  ``process`` tags
    every span (e.g. ``"coordinator"`` / ``"writer-002"``) so a
    stitched multi-process trace stays attributable.
    """

    def __init__(
        self,
        *,
        exporters=(),
        sample_rate: float = 1.0,
        ring_size: int = DEFAULT_RING_SIZE,
        slow_threshold_ms: float | None = None,
        process: str = "main",
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= float(sample_rate) <= 1.0:
            raise InvalidParameterError(
                f"trace_sample_rate must be in [0, 1], got {sample_rate}"
            )
        if int(ring_size) <= 0:
            raise InvalidParameterError(
                f"ring_size must be > 0, got {ring_size}"
            )
        self.sample_rate = float(sample_rate)
        self.process = str(process)
        self.slow_threshold_ms = (
            None if slow_threshold_ms is None else float(slow_threshold_ms)
        )
        self._exporters = list(exporters)
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=int(ring_size))
        self._slow: deque[dict] = deque(maxlen=DEFAULT_SLOW_OPS)
        self._random = random.Random(seed)
        self._pid = os.getpid()
        self._slow_ops_total = _metrics.global_registry().counter(
            "trace_slow_ops_total",
            "spans exceeding the slow-op threshold",
        )

    # -- span production -----------------------------------------------
    def span(self, name: str, *, parent=None, **attributes) -> _ActiveSpan:
        """Open a span; use as a context manager.

        ``parent`` is an explicit ``(trace_id, span_id)`` context from
        another process (see :func:`current_context`); without it the
        ambient ContextVar parent applies, and with neither the span
        roots a new trace (rolling the sampling decision).
        """
        return _ActiveSpan(self, name, parent, attributes)

    def record_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent=None,
        status: str = "ok",
        **attributes,
    ) -> None:
        """Record a retroactively-measured span (e.g. a queue wait whose
        start predates the thread that observes it)."""
        if parent is not None:
            trace_id, parent_id = parent
        else:
            ambient = _CURRENT.get()
            if ambient is not None:
                if not ambient.sampled:
                    return
                trace_id, parent_id = ambient.trace_id, ambient.span_id
            else:
                if not self._sample():
                    return
                trace_id, parent_id = _new_id(8), None
        self._finish(
            trace_id=trace_id,
            span_id=_new_id(4),
            parent_id=parent_id,
            name=name,
            start=float(start),
            duration=float(duration),
            attributes=attributes,
            status=status,
            ancestry=lambda: [name],
        )

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._random.random() < self.sample_rate

    def _finish(
        self,
        *,
        trace_id,
        span_id,
        parent_id,
        name,
        start,
        duration,
        attributes,
        status,
        ancestry,  # zero-arg callable; only invoked on the slow path
    ) -> None:
        span_dict = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start": start,
            "duration": duration,
            "process": self.process,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "status": status,
        }
        if attributes:
            span_dict["attributes"] = dict(attributes)
        with self._lock:
            self._ring.append(span_dict)
        for exporter in self._exporters:
            exporter.export(span_dict)
        threshold = self.slow_threshold_ms
        if threshold is not None and duration * 1e3 >= threshold:
            names = ancestry()
            entry = dict(span_dict)
            entry["ancestry"] = names
            with self._lock:
                self._slow.append(entry)
            self._slow_ops_total.inc()
            _logger.warning(
                "slow op: %s took %.3f ms (threshold %.3f ms) "
                "trace=%s ancestry=%s",
                name,
                duration * 1e3,
                threshold,
                trace_id,
                " > ".join(names),
            )

    # -- inspection ----------------------------------------------------
    def finished_spans(self) -> list[dict]:
        """A copy of the ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    def slow_ops(self) -> list[dict]:
        """A copy of the slow-op log (oldest first), with ancestry."""
        with self._lock:
            return list(self._slow)

    def close(self) -> None:
        """Close every exporter (idempotent)."""
        for exporter in self._exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Process-wide tracer + module-level helpers (the instrumentation API)
# ----------------------------------------------------------------------
_TRACER: Tracer | None = None
_ENV_CHECKED = False
_STATE_LOCK = threading.Lock()


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install the process-wide tracer; returns the previous one."""
    global _TRACER, _ENV_CHECKED
    with _STATE_LOCK:
        previous = _TRACER
        _TRACER = tracer
        _ENV_CHECKED = True  # an explicit choice overrides the env toggle
        return previous


def _tracer_from_env() -> Tracer | None:
    directory = os.environ.get("REPRO_TRACE")
    if not directory:
        return None
    sample = float(os.environ.get("REPRO_TRACE_SAMPLE", "1.0"))
    slow_ms = os.environ.get("REPRO_TRACE_SLOW_MS")
    pid = os.getpid()
    return Tracer(
        exporters=[
            JsonlSpanExporter(
                os.path.join(directory, f"spans-{pid}.jsonl")
            )
        ],
        sample_rate=sample,
        slow_threshold_ms=None if slow_ms is None else float(slow_ms),
        process=f"pid-{pid}",
    )


def get_tracer() -> Tracer | None:
    """The process-wide tracer, lazily honouring ``REPRO_TRACE``."""
    global _TRACER, _ENV_CHECKED
    if _ENV_CHECKED:
        return _TRACER
    with _STATE_LOCK:
        if not _ENV_CHECKED:
            _TRACER = _tracer_from_env()
            _ENV_CHECKED = True
        return _TRACER


def span(name: str, *, tracer: Tracer | None = None, parent=None, **attrs):
    """Open a span on ``tracer`` (or the process tracer); no-op span
    when neither exists.  This is the call every instrumentation site
    makes — the disabled path is one global read and a shared object."""
    active = tracer if tracer is not None else get_tracer()
    if active is None:
        return _NOOP
    return active.span(name, parent=parent, **attrs)


def record_span(
    name: str,
    *,
    start: float,
    duration: float,
    tracer: Tracer | None = None,
    parent=None,
    **attrs,
) -> None:
    """Retroactive :meth:`Tracer.record_span` on the resolved tracer."""
    active = tracer if tracer is not None else get_tracer()
    if active is not None:
        active.record_span(
            name, start=start, duration=duration, parent=parent, **attrs
        )


def current_context() -> tuple[str, str] | None:
    """The ambient ``(trace_id, span_id)``, for cross-process frames.

    ``None`` when no span is active *or* the active trace is unsampled —
    so a carried context always denotes a recorded parent.
    """
    context = _CURRENT.get()
    if context is None or not context.sampled:
        return None
    return (context.trace_id, context.span_id)


def current_trace_id() -> str | None:
    """The ambient trace id (sampled traces only); metrics exemplars."""
    context = _CURRENT.get()
    if context is None or not context.sampled:
        return None
    return context.trace_id


# Trace-id annotations on slow-path metrics: histograms capture the
# ambient trace id as an exemplar whenever one is active.
_metrics.set_exemplar_provider(current_trace_id)


# ----------------------------------------------------------------------
# Reading span logs back
# ----------------------------------------------------------------------
def read_span_file(path, *, strict: bool = False) -> list[dict]:
    """Parse one JSONL span log, discarding a torn trailing line.

    ``strict=True`` additionally *proves* torn-write safety: any
    unparseable line that is not the file's final (newline-less) tail
    raises, because a correct exporter can never produce one.
    """
    raw = Path(path).read_bytes()
    spans: list[dict] = []
    chunks = raw.split(b"\n")
    ends_clean = raw.endswith(b"\n")
    for index, chunk in enumerate(chunks):
        if not chunk:
            continue
        is_tail = index == len(chunks) - 1 and not ends_clean
        try:
            spans.append(json.loads(chunk.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            if strict and not is_tail:
                raise InvalidParameterError(
                    f"torn span line mid-file in {path!s} "
                    f"(line {index + 1})"
                ) from None
            if not is_tail:
                _logger.warning(
                    "skipping unparseable span line %d in %s",
                    index + 1,
                    path,
                )
    return spans


def load_trace(path, *, strict: bool = False) -> list[dict]:
    """Load spans from one JSONL file or every ``*.jsonl`` in a
    directory (sorted by name), concatenated."""
    target = Path(path)
    if target.is_dir():
        spans: list[dict] = []
        for child in sorted(target.glob("*.jsonl")):
            spans.extend(read_span_file(child, strict=strict))
        return spans
    return read_span_file(target, strict=strict)


def stitch_spans(spans) -> dict:
    """Index a span set into a tree: ``by_id``, ``children`` (parent
    span id → child span dicts), ``roots`` and ``orphans`` (spans whose
    parent id resolves to no loaded span — e.g. lost to a killed
    writer's torn tail)."""
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    roots: list[dict] = []
    orphans: list[dict] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent is None:
            roots.append(s)
        elif parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            orphans.append(s)
    return {
        "by_id": by_id,
        "children": children,
        "roots": roots,
        "orphans": orphans,
    }


# ----------------------------------------------------------------------
# Summaries and Perfetto export
# ----------------------------------------------------------------------
def _percentile(sorted_values: list[float], q: float) -> float:
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def summarize_spans(spans) -> list[dict]:
    """Per-name rows: count, p50/p99/max duration and total seconds."""
    grouped: dict[str, list[float]] = {}
    for s in spans:
        grouped.setdefault(s["name"], []).append(float(s["duration"]))
    rows = []
    for name in sorted(grouped):
        durations = sorted(grouped[name])
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "p50": _percentile(durations, 0.50),
                "p99": _percentile(durations, 0.99),
                "max": durations[-1],
                "total": sum(durations),
            }
        )
    return rows


def render_summary(rows) -> str:
    """Fixed-width table of :func:`summarize_spans` rows (ms)."""
    lines = [
        f"{'span':<28} {'count':>7} {'p50_ms':>10} {'p99_ms':>10} "
        f"{'total_ms':>11}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<28} {row['count']:>7} "
            f"{row['p50'] * 1e3:>10.3f} {row['p99'] * 1e3:>10.3f} "
            f"{row['total'] * 1e3:>11.3f}"
        )
    return "\n".join(lines)


def perfetto_trace(spans) -> dict:
    """Chrome trace-event JSON (loadable by Perfetto) from span dicts.

    Each span becomes a complete (``"ph": "X"``) event with
    microsecond timestamps; per-pid metadata events carry the process
    labels so multi-process traces render as named tracks.
    """
    events = []
    process_names: dict[int, str] = {}
    for s in spans:
        pid = int(s.get("pid", 0))
        process_names.setdefault(pid, str(s.get("process", "main")))
        args = {
            "trace_id": s.get("trace_id"),
            "span_id": s.get("span_id"),
            "parent_id": s.get("parent_id"),
            "status": s.get("status", "ok"),
        }
        args.update(s.get("attributes", {}))
        events.append(
            {
                "name": s["name"],
                "cat": "repro",
                "ph": "X",
                "ts": float(s["start"]) * 1e6,
                "dur": float(s["duration"]) * 1e6,
                "pid": pid,
                "tid": int(s.get("tid", 0)),
                "args": args,
            }
        )
    for pid, label in sorted(process_names.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
