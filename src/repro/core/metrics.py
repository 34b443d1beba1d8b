"""Lightweight, dependency-free operational metrics.

A system serving heavy traffic is only trustworthy if its operators can
see what it is doing — Hokusai ships its sketch store with exactly this
kind of operational accounting, and the OEDP line of work stresses that
reporting is part of the system, not an afterthought.  This module is
the whole observability substrate:

* three instruments — :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` (fixed cumulative buckets plus count/sum/min/max,
  with a :meth:`Histogram.time` context manager for latencies),
* :class:`MetricsRegistry` — a named, thread-safe, get-or-create home
  for instruments with a JSON-ready :meth:`~MetricsRegistry.snapshot`
  and a Prometheus-style text :meth:`~MetricsRegistry.exposition`,
* a process-wide default registry (:func:`global_registry`) that the
  first-party hot paths (CM-PBE hash-column LRU, sharded fan-out, the
  live monitor, the batched stream readers, the durable lifecycle)
  report into — including the segment-compaction families
  (``compaction_runs_total``, ``compaction_bytes_rewritten_total``,
  ``compaction_segments_merged_total``, ``compaction_segments_live``),
  the sealed-byte counter ``durable_segment_bytes_total`` (write
  amplification is ``1 + compaction_bytes_rewritten_total /
  durable_segment_bytes_total``, a ratio of counters that stays right
  across recoveries and fleet merges), and the coordinator's
  adaptive-batching families
  (``parallel_coalesced_batches_total``,
  ``parallel_coalesce_flushes_total``,
  ``parallel_coalesce_budget_bytes``),
* :class:`StoreMetrics` — the ``store_*`` families every store owns
  (elements ingested, batch sizes, per-kind query counts, per-call
  latency, saved envelope size).  The public ingest and query methods
  of every backend record into them, so ``store.metrics_snapshot()``
  works on any store with no wrapper and no tracer.

Everything here is stdlib-only and cheap enough for hot paths: an
instrument update is one lock acquisition and one float add.
"""

from __future__ import annotations

import json
import re
import threading
import time
from typing import Callable, Sequence

from repro.core.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StoreMetrics",
    "global_registry",
    "LATENCY_BUCKETS_SECONDS",
    "BATCH_SIZE_BUCKETS",
    "merge_snapshots",
    "render_snapshot",
    "prometheus_exposition",
    "set_exemplar_provider",
]

# Optional trace-id annotation on histogram observations.  The tracing
# layer installs a provider returning the ambient trace id (or None);
# keeping the dependency one-way (tracing -> metrics) avoids an import
# cycle while letting every latency histogram carry a pointer to the
# trace that produced its most recent observation.
_EXEMPLAR_PROVIDER: Callable[[], str | None] | None = None


def set_exemplar_provider(
    provider: Callable[[], str | None] | None,
) -> None:
    """Install the callable histograms use to tag observations with a
    trace id.  Called by :mod:`repro.core.tracing` at import time."""
    global _EXEMPLAR_PROVIDER
    _EXEMPLAR_PROVIDER = provider

#: Default latency buckets (seconds) — decades from 1 microsecond to 10 s.
LATENCY_BUCKETS_SECONDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Default buckets for record/query batch sizes.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0, 262144.0,
)


class Counter:
    """A monotonically increasing count (Prometheus ``counter``)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (Prometheus ``gauge``)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _Timer:
    """Context manager observing its elapsed wall time into a histogram."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class Histogram:
    """A fixed-bucket distribution (Prometheus ``histogram``).

    Buckets are *cumulative*: ``bucket_counts[i]`` is the number of
    observations ``<= bounds[i]``; observations above the last bound are
    only visible in ``count`` (the implicit ``+Inf`` bucket).
    """

    __slots__ = (
        "name", "help", "bounds", "_lock",
        "_bucket_counts", "_count", "_sum", "_min", "_max", "_exemplar",
    )

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise InvalidParameterError(
                "histogram buckets must be a non-empty increasing sequence"
            )
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = lock
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._exemplar: dict | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        trace_id = (
            _EXEMPLAR_PROVIDER() if _EXEMPLAR_PROVIDER is not None else None
        )
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1
            if trace_id is not None:
                self._exemplar = {"trace_id": trace_id, "value": value}

    def time(self) -> _Timer:
        """A context manager that observes its elapsed seconds."""
        return _Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * len(self.bounds)
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")
            self._exemplar = None

    def _snapshot(self) -> dict:
        with self._lock:
            snapshot = {
                "help": self.help,
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
                "buckets": [
                    [bound, count]
                    for bound, count in zip(
                        self.bounds, self._bucket_counts
                    )
                ],
            }
            # Only present when tracing tagged an observation, so
            # untraced runs keep the historical snapshot schema.
            if self._exemplar is not None:
                snapshot["exemplar"] = dict(self._exemplar)
            return snapshot


class MetricsRegistry:
    """A named set of instruments with get-or-create semantics.

    The same name always returns the same instrument object (so hot
    paths can hold a direct reference), and asking for an existing name
    as a different instrument kind is an error.  :meth:`reset` forgets
    every instrument (zeroing them for any held references), so one CLI
    invocation scopes the process-wide registry to itself and a
    snapshot lists exactly the instruments that invocation created.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, kind, name: str, **kwargs):
        if not name or not isinstance(name, str):
            raise InvalidParameterError(
                "metric name must be a non-empty string"
            )
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, lock=threading.Lock(), **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise InvalidParameterError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__.lower()}, not "
                    f"{kind.__name__.lower()}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(Gauge, name, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_create(
            Histogram, name, help=help, buckets=buckets
        )

    def reset(self) -> None:
        """Forget every instrument.

        Dropped instruments are zeroed too, so objects holding a direct
        reference keep a working (but detached) instrument; asking the
        registry for the name again creates a fresh one.
        """
        with self._lock:
            instruments = list(self._instruments.values())
            self._instruments.clear()
        for instrument in instruments:
            instrument._reset()

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every instrument's state."""
        with self._lock:
            instruments = dict(self._instruments)
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = {
                    "value": instrument.value, "help": instrument.help,
                }
            elif isinstance(instrument, Gauge):
                gauges[name] = {
                    "value": instrument.value, "help": instrument.help,
                }
            else:
                histograms[name] = instrument._snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def exposition(self) -> str:
        """Prometheus-style text exposition of the current state."""
        return prometheus_exposition(self.snapshot())


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry used by first-party hot paths."""
    return _GLOBAL


# ----------------------------------------------------------------------
# Fleet-wide aggregation (coordinator + writer-process snapshots)
# ----------------------------------------------------------------------
def merge_snapshots(*snapshots: dict) -> dict:
    """Merge registry snapshots into one fleet-wide view.

    Pure function over snapshot dicts (no registry is mutated): counter
    and gauge values sum, histograms merge count/sum and per-``le``
    bucket counts and take min-of-mins / max-of-maxes.  Used to fold
    the per-writer-process snapshots shipped back over the ack queue
    into the coordinator's own registry snapshot, so ``repro stats``
    and ``--metrics-json`` report whole-fleet numbers.  Gauges are
    summed because every multi-process gauge here is a per-shard level
    (queue depth, seal lag, live segments) whose fleet meaning is the
    total.
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for section in ("counters", "gauges"):
            for name, data in snapshot.get(section, {}).items():
                slot = merged[section].get(name)
                if slot is None:
                    merged[section][name] = {
                        "value": float(data["value"]),
                        "help": data.get("help", ""),
                    }
                else:
                    slot["value"] += float(data["value"])
                    if not slot["help"] and data.get("help"):
                        slot["help"] = data["help"]
        for name, data in snapshot.get("histograms", {}).items():
            slot = merged["histograms"].get(name)
            if slot is None:
                slot = {
                    "help": data.get("help", ""),
                    "count": 0,
                    "sum": 0.0,
                    "min": None,
                    "max": None,
                    "buckets": [
                        [float(bound), 0] for bound, _ in data["buckets"]
                    ],
                }
                merged["histograms"][name] = slot
            if not slot["help"] and data.get("help"):
                slot["help"] = data["help"]
            slot["count"] += int(data["count"])
            slot["sum"] += float(data["sum"])
            for minmax, pick in (("min", min), ("max", max)):
                value = data.get(minmax)
                if value is not None:
                    slot[minmax] = (
                        value
                        if slot[minmax] is None
                        else pick(slot[minmax], value)
                    )
            own = {bound: count for bound, count in slot["buckets"]}
            for bound, count in data["buckets"]:
                bound = float(bound)
                own[bound] = own.get(bound, 0) + int(count)
            slot["buckets"] = [
                [bound, own[bound]] for bound in sorted(own)
            ]
            if data.get("exemplar") is not None:
                slot["exemplar"] = dict(data["exemplar"])
    return {
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": dict(sorted(merged["gauges"].items())),
        "histograms": dict(sorted(merged["histograms"].items())),
    }


# ----------------------------------------------------------------------
# Snapshot rendering (shared by the registry and the `repro stats` CLI)
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_snapshot(snapshot: dict) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`.

    Histograms are summarized as ``count`` and ``sum`` only — bucket
    detail is for the Prometheus exposition, not for eyeballs.
    """
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(
                f"  {name} {_format_value(counters[name]['value'])}"
            )
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(
                f"  {name} {_format_value(gauges[name]['value'])}"
            )
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            data = histograms[name]
            lines.append(
                f"  {name} count={data['count']} "
                f"sum={_format_value(data['sum'])}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


_PROM_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prometheus_name(name: str) -> str:
    """Map a registry name onto a spec-valid Prometheus metric name.

    The exposition-format grammar is ``[a-zA-Z_:][a-zA-Z0-9_:]*`` —
    every other character becomes ``_``, and a leading digit gets a
    ``_`` prefix before the ``repro_`` namespace is applied.
    """
    name = _PROM_INVALID_CHARS.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return "repro_" + name if not name.startswith("repro_") else name


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring per the text-format spec
    (backslash and line-feed only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    """Escape a label value per the text-format spec (backslash,
    double-quote, line-feed)."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prometheus_exposition(snapshot: dict) -> str:
    """Prometheus text-format exposition of a snapshot dict."""
    lines: list[str] = []

    def emit_scalar(section: dict, kind: str) -> None:
        for name in sorted(section):
            data = section[name]
            full = _prometheus_name(name)
            if data.get("help"):
                lines.append(f"# HELP {full} {_escape_help(data['help'])}")
            lines.append(f"# TYPE {full} {kind}")
            lines.append(f"{full} {_format_value(data['value'])}")

    emit_scalar(snapshot.get("counters", {}), "counter")
    emit_scalar(snapshot.get("gauges", {}), "gauge")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        full = _prometheus_name(name)
        if data.get("help"):
            lines.append(f"# HELP {full} {_escape_help(data['help'])}")
        lines.append(f"# TYPE {full} histogram")
        for bound, count in data["buckets"]:
            le = _escape_label_value(_format_value(bound))
            lines.append(f'{full}_bucket{{le="{le}"}} {count}')
        lines.append(f'{full}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{full}_sum {_format_value(data['sum'])}")
        lines.append(f"{full}_count {data['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Per-store accounting (owned by every store, see repro.core.store)
# ----------------------------------------------------------------------
class StoreMetrics:
    """One store's own operational accounting: a private
    :class:`MetricsRegistry` with the ``store_*`` families.

    Every store allocates one on first use and records into it from its
    public ingest and query methods (``_StoreBase`` in
    :mod:`repro.core.store`): elements ingested, batch sizes, per-kind
    query counts, per-call latency and the size of the last
    :func:`~repro.core.serialize.save_store` envelope.  The parts a
    composite store reads and writes through (durable read views and
    memtables, shard children) are called through hooks and record
    nothing, so each call is counted once, on the store the caller
    holds.
    """

    __slots__ = (
        "registry", "elements", "ingest_batches", "ingest_batch_size",
        "point_queries", "point_batches", "point_batch_size",
        "bursty_time_queries", "bursty_event_queries", "peak_queries",
        "query_seconds", "serialized_bytes",
    )

    def __init__(self) -> None:
        m = self.registry = MetricsRegistry()
        self.elements = m.counter(
            "store_elements_ingested_total", "stream elements ingested"
        )
        self.ingest_batches = m.counter(
            "store_ingest_batches_total", "extend_batch calls"
        )
        self.ingest_batch_size = m.histogram(
            "store_ingest_batch_size",
            "records per ingest batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.point_queries = m.counter(
            "store_point_queries_total", "scalar point queries served"
        )
        self.point_batches = m.counter(
            "store_point_query_batches_total", "batched point-query calls"
        )
        self.point_batch_size = m.histogram(
            "store_point_query_batch_size",
            "pairs per point-query batch",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.bursty_time_queries = m.counter(
            "store_bursty_time_queries_total", "bursty-time queries served"
        )
        self.bursty_event_queries = m.counter(
            "store_bursty_event_queries_total",
            "bursty-event queries served",
        )
        self.peak_queries = m.counter(
            "store_peak_queries_total", "peak queries served"
        )
        self.query_seconds = m.histogram(
            "store_query_seconds", "per-call query latency (seconds)"
        )
        self.serialized_bytes = m.gauge(
            "store_serialized_bytes", "size of the last to_bytes() payload"
        )


def _json_default(value):
    if isinstance(value, float):
        return value
    raise TypeError(f"not JSON-serializable: {value!r}")


def dump_snapshot_json(snapshot: dict) -> str:
    """Stable JSON text for a snapshot (sorted keys, trailing newline)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
