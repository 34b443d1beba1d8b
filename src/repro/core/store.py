"""Pluggable burst-store backends: one protocol, one registry, N engines.

The paper's three historical queries (§II-A) — point, bursty-time and
bursty-event — were answered by five parallel implementations
(:class:`~repro.baselines.exact.ExactBurstStore`, per-event PBE-1/PBE-2
maps, :class:`~repro.core.cmpbe.CMPBE`,
:class:`~repro.core.cmpbe.DirectPBEMap` and
:class:`~repro.core.dyadic.BurstyEventIndex`), each with its own ingest,
query and serialization surface.  This module unifies them:

* :class:`BurstStore` — the protocol every backend satisfies
  (``extend`` / ``extend_batch`` ingest, the three queries, ``merge``,
  ``memory_elements`` accounting and ``to_bytes`` / ``from_bytes``
  payload codecs),
* a string-keyed **registry** — :func:`register_backend` /
  :func:`create_store` — so new engines are a registry entry, not a
  five-site edit,
* :class:`ShardedBurstStore` — hash-partitions event ids across ``N``
  child backends (Fibonacci mixing, so adjacent ids spread), answering
  per-event queries on the owning shard and fanning bursty-event
  queries out to every shard,
* the versioned serialization envelope lives in
  :mod:`repro.core.serialize` (``save_store`` / ``load_store``) and
  round-trips any registered backend, sharded composites included.

Registered keys: ``exact``, ``cm-pbe-1``, ``cm-pbe-2``, ``direct``,
``index``, ``sharded``, ``durable`` (the WAL + memtable +
sealed-segment lifecycle in :mod:`repro.core.durable`).  Every store
validates and accounts its public calls itself (``store.metrics``).
"""

from __future__ import annotations

import contextvars
import io
import json
import math
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    Iterable,
    Literal,
    NamedTuple,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.baselines.exact import ExactBurstStore
from repro.core.cmpbe import (
    CMPBE,
    DirectPBEMap,
    _iter_groups,
    _validated_query_batch,
    _validated_record_batch,
)
from repro.core.dyadic import BurstyEvent, BurstyEventIndex
from repro.core.errors import (
    InvalidParameterError,
    SerializationError,
    UnknownBackendError,
    require_count,
    require_finite_time,
    require_tau,
    require_theta,
    require_time_range,
)
from repro.core.metrics import (
    MetricsRegistry,
    StoreMetrics,
    global_registry,
)
from repro.core.parallel import merge_pbe1, merge_pbe2, merge_stores
from repro.core.serialize import (
    dump_cmpbe,
    dump_direct_map,
    dump_index,
    folded_sketch_cells,
    load_cmpbe,
    load_direct_map,
    load_index,
)
from repro.core.tracing import set_tracer as _set_tracer
from repro.core.tracing import span as _trace_span
from repro.core.pbe1 import PBE1
from repro.core.pbe2 import PBE2
from repro.core.queries import (
    _merge_intervals,
    bursty_time_intervals,
    max_burstiness,
)
from repro.streams.frequency import burstiness_from_curve

__all__ = [
    "BurstStore",
    "BackendInfo",
    "register_backend",
    "backend_keys",
    "create_store",
    "load_backend",
    "ExactStore",
    "CMPBEStore",
    "DirectMapStore",
    "DyadicIndexStore",
    "ShardedBurstStore",
]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
@runtime_checkable
class BurstStore(Protocol):
    """What every burst-store backend must support.

    A store ingests a timestamp-ordered stream of ``(event_id,
    timestamp)`` mentions and answers the paper's three historical
    queries.  ``merge`` combines two stores built over *consecutive,
    disjoint* time ranges of the same stream (the §III-A parallel-build
    contract); ``to_bytes``/``from_bytes`` are the payload codec that the
    envelope in :mod:`repro.core.serialize` wraps.
    """

    backend_key: str

    def extend(self, records: Iterable[tuple[int, float]]) -> None: ...

    def extend_batch(self, event_ids, timestamps, counts=None) -> None: ...

    def append(self, event_id: int, timestamp: float, count: int = 1) -> None: ...

    def flush(self) -> None: ...

    def seal(self) -> None: ...

    def close(self) -> None: ...

    def point_query(self, event_id: int, t: float, tau: float) -> float: ...

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray: ...

    def bursty_time_query(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
        piecewise: Literal["constant", "linear"] | None = None,
    ) -> list[tuple[float, float]]: ...

    def bursty_event_query(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]: ...

    def merge(self, other: "BurstStore") -> "BurstStore": ...

    def memory_elements(self) -> int: ...

    def metrics_snapshot(self) -> dict: ...

    def to_bytes(self) -> bytes: ...

    @classmethod
    def from_bytes(cls, data: bytes) -> "BurstStore": ...


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class BackendInfo(NamedTuple):
    """One registry entry: how to build and how to deserialize a backend."""

    key: str
    factory: Callable[..., BurstStore]
    loader: Callable[[bytes], BurstStore]
    description: str


_REGISTRY: dict[str, BackendInfo] = {}


def register_backend(
    key: str,
    factory: Callable[..., BurstStore],
    loader: Callable[[bytes], BurstStore],
    description: str = "",
) -> None:
    """Register a burst-store backend under a string key.

    ``factory(**cfg)`` must build a fresh store; ``loader(payload)`` must
    invert the store's ``to_bytes``.  Registering an existing key
    replaces it (latest wins), so tests can stub backends.
    """
    if not key or not isinstance(key, str):
        raise InvalidParameterError("backend key must be a non-empty string")
    _REGISTRY[key] = BackendInfo(key, factory, loader, description)


def backend_keys() -> list[str]:
    """Every registered backend key, sorted."""
    return sorted(_REGISTRY)


def _backend(key: str) -> BackendInfo:
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {key!r}; registered: {backend_keys()}"
        ) from None


def create_store(backend: str, /, *, tracer=None, **cfg) -> BurstStore:
    """Build a store from its registry key, e.g. ``create_store("cm-pbe-1",
    eta=100, width=16, depth=5)``.

    The key is positional-only so a ``backend=...`` kwarg can configure a
    composite (the sharded store's child backend) without clashing.

    ``tracer`` installs a :class:`repro.core.tracing.Tracer` as the
    process-ambient tracer before the store is built, so every span the
    store (and the WAL/seal machinery under it) emits is exported there;
    the ``REPRO_TRACE`` environment variable is the zero-code
    equivalent.
    """
    if tracer is not None:
        _set_tracer(tracer)
    return _backend(backend).factory(**cfg)


def load_backend(key: str, payload: bytes) -> BurstStore:
    """Deserialize one backend payload (the envelope's inner bytes)."""
    return _backend(key).loader(payload)


# ----------------------------------------------------------------------
# Cell specification (shared by every PBE-celled backend)
# ----------------------------------------------------------------------
class _CellSpec:
    """Which PBE goes in a cell, plus its knobs — JSON round-trippable."""

    __slots__ = ("kind", "eta", "buffer_size", "gamma", "unit")

    def __init__(
        self,
        kind: str = "pbe1",
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
    ) -> None:
        if kind not in ("pbe1", "pbe2"):
            raise InvalidParameterError(
                f"cell must be 'pbe1' or 'pbe2', got {kind!r}"
            )
        self.kind = kind
        self.eta = int(eta)
        self.buffer_size = int(buffer_size)
        self.gamma = float(gamma)
        self.unit = float(unit)

    def factory(self) -> Callable[[], PBE1 | PBE2]:
        if self.kind == "pbe1":
            eta, buffer_size = self.eta, self.buffer_size
            return lambda: PBE1(eta=eta, buffer_size=buffer_size)
        gamma, unit = self.gamma, self.unit
        return lambda: PBE2(gamma=gamma, unit=unit)

    @property
    def piecewise(self) -> Literal["constant", "linear"]:
        return "constant" if self.kind == "pbe1" else "linear"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "eta": self.eta,
            "buffer_size": self.buffer_size,
            "gamma": self.gamma,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_CellSpec":
        return cls(**data)

    @classmethod
    def from_cell(cls, cell: PBE1 | PBE2 | None) -> "_CellSpec":
        """Infer the spec from a live cell (for legacy v1 payloads)."""
        if isinstance(cell, PBE2):
            return cls(kind="pbe2", gamma=cell.gamma, unit=cell.unit)
        if isinstance(cell, PBE1):
            return cls(
                kind="pbe1", eta=cell.eta, buffer_size=cell.buffer_size
            )
        return cls()

    def matches(self, other: "_CellSpec") -> bool:
        return self.to_dict() == other.to_dict()


def _cell_elements(cell) -> int:
    """Primitive elements a cell retains: corners (PBE-1) or segments."""
    if isinstance(cell, PBE1):
        return cell.n_corners
    if isinstance(cell, PBE2):
        return cell.n_segments
    return 0


def _merge_cells(a, b):
    """Merge two time-disjoint cells of the same PBE kind."""
    if isinstance(a, PBE1) and isinstance(b, PBE1):
        return merge_pbe1([a, b])
    if isinstance(a, PBE2) and isinstance(b, PBE2):
        return merge_pbe2([a, b])
    raise InvalidParameterError("cannot merge cells of different PBE kinds")


def _copy_cell(cell):
    """An independent copy of a cell (single-part merge copies state)."""
    if isinstance(cell, PBE1):
        return merge_pbe1([cell])
    return merge_pbe2([cell])


def _pack_config(config: dict, payload: bytes) -> bytes:
    """``<u32 json length> + json config + payload`` — every backend's
    ``to_bytes`` layout."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob + payload


def _unpack_config(data: bytes) -> tuple[dict, bytes]:
    if len(data) < 4:
        raise SerializationError("truncated store payload")
    (length,) = struct.unpack_from("<I", data)
    if len(data) < 4 + length:
        raise SerializationError("truncated store config")
    try:
        config = json.loads(bytes(data[4 : 4 + length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed store config: {exc}") from None
    return config, data[4 + length :]


def _canonical_hits(hits: list[BurstyEvent]) -> list[BurstyEvent]:
    """Deterministic bursty-event ordering: burstiness desc, id asc.

    Backends enumerate candidates in different orders (dict insertion,
    universe scan, shard fan-out); canonicalizing here makes results
    comparable across backends and stable across merges.
    """
    return sorted(hits, key=lambda hit: (-hit.burstiness, hit.event_id))


def _scan_hits(
    store, ids: np.ndarray, t: float, theta: float, tau: float
) -> list[BurstyEvent]:
    """Bursty events among ``ids``: one batched point query at ``t``."""
    values = store._point_batch(ids, np.full(ids.size, t), tau)
    hit = np.flatnonzero(values >= theta)
    return _canonical_hits(
        [
            BurstyEvent(event_id, value)
            for event_id, value in zip(
                ids[hit].tolist(), values[hit].tolist()
            )
        ]
    )


class _CurveView:
    """Adapter exposing a store's per-event estimate as a cumulative curve."""

    __slots__ = ("_store", "_event_id")

    def __init__(self, store, event_id: int) -> None:
        self._store = store
        self._event_id = event_id

    def value(self, t: float) -> float:
        return float(self._store.cumulative_frequency(self._event_id, t))

    def value_many(self, ts) -> np.ndarray:
        return self._store.cumulative_frequency_many(self._event_id, ts)

    def size_in_bytes(self) -> int:
        return self._store.size_in_bytes()


# ----------------------------------------------------------------------
# Shared backend machinery
# ----------------------------------------------------------------------
#: Guards the first allocation of a store's accounting.
_ACCOUNTING_LOCK = threading.Lock()


class _StoreBase:
    """The public ingest and query surface shared by every backend.

    The public methods are the one place that validates arguments and
    records the store's own accounting (:attr:`metrics`); backends
    implement the hooks (``_inner_update``, ``_inner_extend_batch``,
    ``_point``, ``_point_batch``, ``_bursty_times``, ``_bursty_events``,
    ``_peak``), which trust their arguments.  Composite stores (the
    sharded fan-out, the durable read path) call their parts' hooks, so
    a call is validated and counted once, on the store the caller holds.
    """

    backend_key = "base"

    #: The store's :class:`~repro.core.metrics.StoreMetrics`, allocated
    #: on first use: parts that only ever see hook calls never build one.
    _store_metrics: StoreMetrics | None = None

    def __init__(self) -> None:
        self._t_end = float("-inf")

    # -- accounting ----------------------------------------------------
    @property
    def _accounting(self) -> StoreMetrics:
        accounting = self._store_metrics
        if accounting is None:
            with _ACCOUNTING_LOCK:
                accounting = self._store_metrics
                if accounting is None:
                    accounting = self._store_metrics = StoreMetrics()
        return accounting

    @property
    def metrics(self) -> MetricsRegistry:
        """This store's own registry: the ``store_*`` ingest and query
        families its public methods record into."""
        return self._accounting.registry

    def metrics_snapshot(self) -> dict:
        """Snapshot of :attr:`metrics`."""
        return self.metrics.snapshot()

    # -- ingest --------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` mentions of ``event_id`` at ``timestamp``."""
        require_finite_time(timestamp)
        require_count(count)
        self._ingest(event_id, timestamp, count)
        self._accounting.elements.inc(count)

    def _ingest(self, event_id: int, timestamp: float, count: int) -> None:
        """Validated scalar ingest, unaccounted (what composites call)."""
        self._inner_update(event_id, timestamp, count)
        if timestamp > self._t_end:
            # ``+ 0.0`` stores a zero horizon as +0.0, whichever signed
            # zero arrived first, so the config bytes do not depend on
            # how a stream ending 0.0, -0.0 was split into batches.
            self._t_end = float(timestamp) + 0.0

    def extend(self, records: Iterable[tuple[int, float]]) -> None:
        """Ingest many ``(event_id, timestamp)`` pairs in stream order."""
        for event_id, timestamp in records:
            self.update(event_id, timestamp)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a columnar record batch."""
        ids, ts, counts = _validated_record_batch(
            event_ids, timestamps, counts
        )
        self._ingest_batch(ids, ts, counts)
        accounting = self._accounting
        accounting.ingest_batches.inc()
        accounting.ingest_batch_size.observe(ids.size)
        accounting.elements.inc(
            ids.size if counts is None else int(counts.sum())
        )

    def _ingest_batch(self, ids, ts, counts) -> None:
        """Validated batch ingest, unaccounted (what composites call)."""
        if ids.size == 0:
            return
        self._inner_extend_batch(ids, ts, counts)
        last = float(ts[-1])
        if last > self._t_end:
            self._t_end = last + 0.0  # a zero horizon is +0.0: see _ingest

    def append(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Alias of :meth:`update` — the durable-lifecycle spelling.

        On a :class:`~repro.core.durable.DurableBurstStore` the record
        is write-ahead-logged before it is applied; for purely in-memory
        backends the two spellings are the same operation.
        """
        self.update(event_id, timestamp, count)

    # -- queries -------------------------------------------------------
    def point_query(self, event_id: int, t: float, tau: float) -> float:
        """POINT QUERY ``q(e, t, tau)`` → estimated ``b_e(t)``."""
        require_tau(tau)
        require_finite_time(t)
        accounting = self._accounting
        with accounting.query_seconds.time():
            value = float(self._point(event_id, t, tau))
        accounting.point_queries.inc()
        return value

    # Alias kept so a store can stand in anywhere a raw sketch was used.
    def burstiness(self, event_id: int, t: float, tau: float) -> float:
        """Alias of :meth:`point_query` (sketch-compatible spelling)."""
        return self.point_query(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        """Batched POINT QUERY: estimated ``b_e(t)`` per ``(e, t)`` pair.

        Results are bit-identical to calling :meth:`point_query` per
        pair.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        accounting = self._accounting
        with accounting.query_seconds.time():
            values = self._point_batch(ids, times, tau)
        accounting.point_batches.inc()
        accounting.point_batch_size.observe(values.size)
        return values

    def bursty_time_query(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
        piecewise: Literal["constant", "linear"] | None = None,
    ) -> list[tuple[float, float]]:
        """BURSTY TIME QUERY ``q(e, theta, tau)`` → maximal intervals with
        ``b_e(t) >= theta``.

        ``theta`` may be negative (burstiness can be); NaN ``theta`` or
        ``merge_gap`` is rejected.
        """
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
        if math.isnan(theta) or math.isnan(merge_gap):
            raise InvalidParameterError(
                f"theta and merge_gap must not be NaN, got theta={theta}, "
                f"merge_gap={merge_gap}"
            )
        accounting = self._accounting
        with accounting.query_seconds.time():
            intervals = self._bursty_times(
                event_id, theta, tau, t_end, merge_gap, piecewise
            )
        accounting.bursty_time_queries.inc()
        return intervals

    def peak_query(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        """``(t_star, b_star)``: the event's burstiest moment in a range."""
        require_time_range(t_start, t_end)
        accounting = self._accounting
        with accounting.query_seconds.time():
            peak = self._peak(event_id, t_start, t_end, tau)
        accounting.peak_queries.inc()
        return peak

    def bursty_event_query(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """BURSTY EVENT QUERY ``q(t, theta, tau)`` → the events with
        ``b_e(t) >= theta``."""
        require_finite_time(t)
        require_theta(theta)
        require_tau(tau)
        accounting = self._accounting
        with accounting.query_seconds.time():
            hits = self._bursty_events(t, theta, tau)
        accounting.bursty_event_queries.inc()
        return hits

    # -- query hooks (arguments validated by the public methods) -------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return burstiness_from_curve(_CurveView(self, event_id), t, tau)

    def _point_batch(
        self, ids: np.ndarray, times: np.ndarray, tau: float
    ) -> np.ndarray:
        """A scalar loop (correct for any backend); engines with a
        vectorized read path override it."""
        out = np.empty(ids.size, dtype=np.float64)
        for i in range(ids.size):
            out[i] = self._point(int(ids[i]), float(times[i]), tau)
        return out

    def _bursty_times(
        self, event_id, theta, tau, t_end, merge_gap, piecewise
    ) -> list[tuple[float, float]]:
        knots = self.segment_starts(event_id)
        if not knots:
            return []
        end = self._resolve_t_end(t_end, tau, knots)
        return bursty_time_intervals(
            self.curve(event_id),
            knots,
            theta,
            tau,
            t_end=end,
            piecewise=piecewise if piecewise is not None else self.piecewise,
            merge_gap=merge_gap,
        )

    def _peak(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        return max_burstiness(
            self.curve(event_id),
            self.segment_starts(event_id),
            tau,
            t_start,
            t_end,
            piecewise=self.piecewise,
        )

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        raise NotImplementedError

    def curve(self, event_id: int) -> _CurveView:
        """A cumulative-curve view of one event's estimate."""
        return _CurveView(self, event_id)

    # -- shared plumbing ----------------------------------------------
    piecewise: Literal["constant", "linear"] = "constant"

    def _resolve_t_end(
        self, t_end: float | None, tau: float, knots: list[float]
    ) -> float:
        if t_end is not None:
            return t_end
        if self._t_end != float("-inf"):
            return self._t_end + 2 * tau
        # Loaded legacy payloads carry no stream horizon: fall back to
        # the last instant this event's estimate can change.
        return max(knots) + 2 * tau

    def finalize(self) -> None:
        """Flush buffered state (no-op for exact storage)."""

    def flush(self) -> None:
        """Durability point: push acknowledged writes toward disk.

        No-op for in-memory backends; the durable backend fsyncs its
        WAL per the configured policy.
        """

    def seal(self) -> None:
        """Freeze the mutable write buffer into immutable storage.

        No-op for monolithic in-memory backends; the durable backend
        turns its memtable into a sealed segment.
        """

    def close(self) -> None:
        """Release held resources (idempotent; no-op by default).

        Subclasses holding threads, file handles or logs override this;
        queries on already-ingested data remain valid after closing.
        """

    def __enter__(self) -> "_StoreBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def t_end(self) -> float:
        """Largest ingested timestamp (``-inf`` before any ingest)."""
        return self._t_end

    def _config(self) -> dict:
        return {"t_end": self._t_end}

    def _restore_config(self, config: dict) -> None:
        self._t_end = float(config.get("t_end", float("-inf")))

    def export_records(self) -> tuple[np.ndarray, np.ndarray]:
        """Enumerate the ingested records as ``(ids, timestamps)``.

        Returns int64 event ids and float64 timestamps sorted by
        timestamp (ties broken by event id), with ``count > 1``
        ingests expanded to repeated rows.  Only backends that retain
        their raw records implement this — it is what offline shard
        rebalancing (:func:`repro.core.compaction.rebalance`) streams
        through the shard hash; sketch backends cannot enumerate the
        ids they have already folded away and raise instead.
        """
        raise InvalidParameterError(
            f"backend {self.backend_key!r} cannot enumerate its records "
            "(only record-retaining backends such as 'exact' support "
            "export_records / rebalancing)"
        )

    # -- immutable parts (the durable read path) ----------------------
    def snapshot(self) -> "_StoreBase":
        """An immutable copy for readers: the codec round trip, which
        folds a sketch's buffered state on scratch copies."""
        return type(self).from_bytes(self.to_bytes())

    @classmethod
    def stack(cls, parts: Sequence["_StoreBase"]) -> "_StoreBase":
        """One store answering over immutable parts built on consecutive
        time ranges, oldest first: the left fold of :meth:`merge`
        (:func:`~repro.core.parallel.merge_stores`)."""
        return merge_stores(parts)

    # Subclass hooks ---------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        raise NotImplementedError

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        raise NotImplementedError

    def segment_starts(self, event_id: int) -> list[float]:
        raise NotImplementedError

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        raise NotImplementedError

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """``F~_e`` at every time in ``ts`` (float64), bit-identical to a
        :meth:`cumulative_frequency` loop."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Backend: exact
# ----------------------------------------------------------------------
class ExactStore(_StoreBase):
    """The §II-B exact baseline behind the :class:`BurstStore` surface."""

    backend_key = "exact"
    piecewise = "constant"

    def __init__(self, _inner: ExactBurstStore | None = None) -> None:
        super().__init__()
        self.inner = _inner if _inner is not None else ExactBurstStore()
        if _inner is not None and _inner._last_timestamp is not None:
            self._t_end = float(_inner._last_timestamp) + 0.0  # see _ingest

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner._append_batch(ids.astype(np.int64), ts, counts)

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self.inner.burstiness(event_id, t, tau)

    def _point_batch(self, ids, times, tau: float) -> np.ndarray:
        return self.inner.burstiness_many(ids, times, tau)

    def _bursty_times(
        self, event_id, theta, tau, t_end, merge_gap, piecewise
    ) -> list[tuple[float, float]]:
        # The exact burstiness is genuinely a step function, so any
        # requested ``piecewise`` mode degenerates to breakpoint scans.
        if t_end is None and self._t_end == float("-inf"):
            return []  # horizon -inf: every breakpoint lies past it
        end = t_end if t_end is not None else self._t_end + 2 * tau
        intervals = self.inner.bursty_times(event_id, theta, tau, t_end=end)
        if merge_gap > 0.0 and intervals:
            starts, ends = np.asarray(intervals, dtype=np.float64).T
            intervals = _merge_intervals(starts, ends, merge_gap)
        return intervals

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        return _canonical_hits(self.inner.bursty_events(t, theta, tau))

    def _peak(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        knots = self.inner.timestamps_between(
            event_id, t_start - 2 * tau, t_end
        )
        return max_burstiness(
            self.curve(event_id), knots, tau, t_start, t_end
        )

    def segment_starts(self, event_id: int) -> list[float]:
        return sorted(set(self.inner.timestamps_of(event_id)))

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return float(self.inner.cumulative_frequency(event_id, t))

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self.inner.cumulative_frequency_many(event_id, ts)

    def export_records(self) -> tuple[np.ndarray, np.ndarray]:
        items = list(self.inner._items())
        if not items:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        ids = np.concatenate(
            [np.full(len(times), event_id, dtype=np.int64)
             for event_id, times in items]
        )
        ts = np.concatenate(
            [np.asarray(times, dtype=np.float64) for _, times in items]
        )
        # Timestamp-major, id-minor: per-event lists are already
        # non-decreasing (stream order), so this canonical order is a
        # valid ingest order and is deterministic regardless of how the
        # original stream interleaved equal timestamps.
        order = np.lexsort((ids, ts))
        return ids[order], ts[order]

    # -- accounting ----------------------------------------------------
    @property
    def count(self) -> int:
        return self.inner.count

    def memory_elements(self) -> int:
        return self.inner.count

    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes()

    # -- snapshots & stacks --------------------------------------------
    def snapshot(self) -> "ExactStore":
        """An independent copy for readers in O(events): it shares the
        append-only per-event lists and record log, bounded by their
        current lengths, and every stacked table (see
        :meth:`ExactBurstStore.snapshot`)."""
        copy = ExactStore(self.inner.snapshot())
        copy._t_end = self._t_end
        return copy

    @classmethod
    def stack(cls, parts: Sequence["ExactStore"]) -> "ExactStore":
        """Answer over the union of immutable ``parts`` without merging.

        O(parts) to build; each query runs per part and sums the
        integer counts, so every answer is bit-identical to the store
        :meth:`merge` would build from the same parts.
        """
        if not parts or not all(isinstance(p, ExactStore) for p in parts):
            raise InvalidParameterError("can only stack exact stores")
        view = cls(ExactBurstStore.stacked([part.inner for part in parts]))
        view._t_end = max(part._t_end for part in parts)
        return view

    # -- merge & codec -------------------------------------------------
    def merge(self, other: "ExactStore") -> "ExactStore":
        """Merge with another exact store (time ranges may interleave —
        exact storage has no per-part state to offset): one columnar
        part whose runs concatenate, sorting only the events whose runs
        interleave (see :meth:`ExactBurstStore.merged`)."""
        if not isinstance(other, ExactStore):
            raise InvalidParameterError("can only merge exact with exact")
        merged = ExactStore(ExactBurstStore.merged([self.inner, other.inner]))
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        events = self.inner.event_ids()
        out.write(struct.pack("<QQ", self.inner.count, len(events)))
        for event_id in events:
            times = np.asarray(
                self.inner.timestamps_of(event_id), dtype="<f8"
            )
            out.write(struct.pack("<qQ", int(event_id), times.size))
            out.write(times.tobytes())
        return _pack_config(self._config(), out.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExactStore":
        """Decode a payload in O(events): each event's run becomes a
        read-only ``float64`` view into the payload (into the segment's
        mapping when opened lazily), not a copied list."""
        if sys.byteorder != "little":
            raise SerializationError(
                "exact-store runs are little-endian float64 read in "
                "place; this host is big-endian"
            )
        config, payload = _unpack_config(data)
        header = struct.Struct("<QQ")
        if len(payload) < header.size:
            raise SerializationError("truncated exact-store payload")
        count, n_events = header.unpack_from(payload)
        offset = header.size
        view = memoryview(payload).toreadonly()
        runs: dict[int, memoryview] = {}
        stored = 0
        for _ in range(n_events):
            if len(payload) < offset + 16:
                raise SerializationError("truncated exact-store payload")
            event_id, n_times = struct.unpack_from("<qQ", payload, offset)
            offset += 16
            end = offset + 8 * n_times
            if len(payload) < end:
                raise SerializationError("truncated exact-store payload")
            runs[int(event_id)] = view[offset:end].cast("d")
            stored += n_times
            offset = end
        if offset != len(payload):
            raise SerializationError(
                f"{len(payload) - offset} trailing bytes after the last "
                "exact-store event"
            )
        if stored != count or len(runs) != n_events:
            raise SerializationError(
                f"exact-store header says {count} records of {n_events} "
                f"events; the payload holds {stored} of {len(runs)}"
            )
        store = cls(ExactBurstStore.from_columns(runs, int(count), None))
        store._restore_config(config)
        if store._t_end != float("-inf"):
            store.inner._last_timestamp = store._t_end
        return store


# ----------------------------------------------------------------------
# Sketch backends: PBE cells in level sketches (CM-PBE grids, direct maps)
# ----------------------------------------------------------------------
class _SketchStore(_StoreBase):
    """The PBE-celled sketches behind the :class:`BurstStore` surface.

    Every sketch backend keeps PBE-1/PBE-2 cells (``spec``) in one or
    more *level sketches* — a :class:`~repro.core.cmpbe.CMPBE` grid or a
    :class:`~repro.core.cmpbe.DirectPBEMap` — answers point and
    bursty-time queries from the leaf level, and merges level by level
    under the §III-A time-range merge.  A subclass supplies its
    constructor, ``_bursty_events``, its extra merge check, how to
    rebuild ``inner`` from merged levels, and its codec pair
    (``_dump``/``_load``).
    """

    #: What the refused-merge message calls this backend.
    _kind: str

    def __init__(self, spec: _CellSpec, inner) -> None:
        super().__init__()
        self.spec = spec
        self.inner = inner

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return self.spec.piecewise

    @property
    def _leaf(self) -> CMPBE | DirectPBEMap:
        """The level sketch that answers per-event queries."""
        return self.inner

    def _levels(self) -> list[CMPBE | DirectPBEMap]:
        """Every level sketch, leaf first."""
        return [self.inner]

    @classmethod
    def from_legacy(cls, inner) -> "_SketchStore":
        """Wrap the sketch of a v1 ``CMPB``/``DMAP``/``BIDX`` blob (cell
        spec inferred)."""
        return cls._adopt(inner, None, {})

    @classmethod
    def _adopt(
        cls, inner, spec: _CellSpec | None, config: dict
    ) -> "_SketchStore":
        """A store over a decoded or merged ``inner``.  ``spec=None``
        infers the cell spec from the leaf's first cell (v1 blobs carry
        none); new direct-map cells follow the spec, and ``config``
        restores the rest."""
        store = cls(_inner=inner, _spec=spec or _CellSpec())
        if spec is None:
            first = next(iter(store._leaf.cells()), None)
            store.spec = _CellSpec.from_cell(first)
        for level in store._levels():
            if isinstance(level, DirectPBEMap):
                level._cell_factory = store.spec.factory()
        store._restore_config(config)
        return store

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner.extend_batch(ids, ts, counts)

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self._leaf.burstiness(event_id, t, tau)

    def _point_batch(self, ids, times, tau: float) -> np.ndarray:
        return self._leaf.burstiness_many(ids, times, tau)

    def segment_starts(self, event_id: int) -> list[float]:
        return self._leaf.segment_starts(event_id)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return float(self._leaf.cumulative_frequency(event_id, t))

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self._leaf.cumulative_frequency_many(event_id, ts)

    # -- accounting ----------------------------------------------------
    @property
    def count(self) -> int:
        return self._leaf.count

    def finalize(self) -> None:
        self.inner.finalize()

    def memory_elements(self) -> int:
        return sum(
            _cell_elements(cell)
            for level in self._levels()
            for cell in level.cells()
        )

    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes()

    # -- merge & codec -------------------------------------------------
    def _check_merge(self, other: "_SketchStore") -> None:
        """Backend-specific merge preconditions beyond the cell spec."""

    def _inner_from_levels(self, levels: list):
        """``inner`` rebuilt around merged level sketches."""
        (level,) = levels
        return level

    def merge(self, other: "_SketchStore") -> "_SketchStore":
        """Level-wise merge of two sketches built over consecutive,
        disjoint time ranges.

        The live cells of both operands are folded on scratch copies in
        one batched call first, so merging never mutates a live sketch.
        """
        if not isinstance(other, type(self)):
            raise InvalidParameterError(
                f"can only merge {self._kind} with {self._kind}"
            )
        if not self.spec.matches(other.spec):
            raise InvalidParameterError("cell specs differ; cannot merge")
        self._check_merge(other)
        pairs = list(zip(self._levels(), other._levels()))
        folded = iter(folded_sketch_cells([s for pair in pairs for s in pair]))
        levels = [
            _merged_level(a, b, next(folded), next(folded))
            for a, b in pairs
        ]
        merged = self._adopt(
            self._inner_from_levels(levels), self.spec, self._config()
        )
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["cell"] = self.spec.to_dict()
        return config

    def to_bytes(self) -> bytes:
        return _pack_config(self._config(), self._dump(self.inner))

    @classmethod
    def from_bytes(cls, data: bytes) -> "_SketchStore":
        config, payload = _unpack_config(data)
        return cls._adopt(
            cls._load(payload), _CellSpec.from_dict(config["cell"]), config
        )


def _merged_level(
    a: CMPBE | DirectPBEMap,
    b: CMPBE | DirectPBEMap,
    cells_a: list,
    cells_b: list,
) -> CMPBE | DirectPBEMap:
    """Merge two level sketches from their folded ``cells()``: a CM-PBE
    grid cell by cell (same dimensions, combiner and seed), a direct map
    over the union of ids."""
    if isinstance(a, CMPBE) and isinstance(b, CMPBE):
        if (a.width, a.depth, a.combiner, a.seed) != (
            b.width, b.depth, b.combiner, b.seed,
        ):
            raise InvalidParameterError(
                "grid dimensions/seed differ; cannot merge"
            )
        merged_cells = iter(
            [_merge_cells(x, y) for x, y in zip(cells_a, cells_b)]
        )
        level = CMPBE(
            cell_factory=lambda: next(merged_cells),
            width=a.width,
            depth=a.depth,
            combiner=a.combiner,
            seed=a.seed,
        )
    elif isinstance(a, DirectPBEMap) and isinstance(b, DirectPBEMap):
        by_id_a = dict(zip(a._cells, cells_a))
        by_id_b = dict(zip(b._cells, cells_b))
        level = DirectPBEMap(a._cell_factory)
        for event_id in sorted(set(by_id_a) | set(by_id_b)):
            cell_a = by_id_a.get(event_id)
            cell_b = by_id_b.get(event_id)
            if cell_a is not None and cell_b is not None:
                level._cells[event_id] = _merge_cells(cell_a, cell_b)
            else:
                level._cells[event_id] = _copy_cell(
                    cell_a if cell_a is not None else cell_b
                )
    else:
        raise InvalidParameterError("level layouts differ; cannot merge")
    level._count = a.count + b.count
    return level


# ----------------------------------------------------------------------
# Backend: cm-pbe-1 / cm-pbe-2 (one flat CM-PBE grid)
# ----------------------------------------------------------------------
class CMPBEStore(_SketchStore):
    """A single CM-PBE grid (§IV) behind the :class:`BurstStore` surface.

    Bursty-event queries scan the id universe (``universe_size`` must be
    configured); use the ``index`` backend for the pruned §V descent.
    """

    _kind = "CM-PBE"
    _dump = staticmethod(dump_cmpbe)
    _load = staticmethod(load_cmpbe)

    def __init__(
        self,
        cell: str = "pbe1",
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
        width: int = 6,
        depth: int = 3,
        combiner: str = "median",
        seed: int = 0,
        universe_size: int | None = None,
        _inner: CMPBE | None = None,
        _spec: _CellSpec | None = None,
    ) -> None:
        spec = _spec if _spec is not None else _CellSpec(
            cell, eta, buffer_size, gamma, unit
        )
        super().__init__(
            spec,
            _inner
            if _inner is not None
            else CMPBE(
                cell_factory=spec.factory(),
                width=width,
                depth=depth,
                combiner=combiner,
                seed=seed,
            ),
        )
        self.universe_size = universe_size

    @property
    def backend_key(self) -> str:  # type: ignore[override]
        return "cm-pbe-1" if self.spec.kind == "pbe1" else "cm-pbe-2"

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        if self.universe_size is None:
            raise InvalidParameterError(
                "bursty event queries on a flat CM-PBE scan the id "
                "universe; configure universe_size (or use the 'index' "
                "backend)"
            )
        return _scan_hits(self, np.arange(self.universe_size), t, theta, tau)

    def _config(self) -> dict:
        config = super()._config()
        config["universe_size"] = self.universe_size
        return config

    def _restore_config(self, config: dict) -> None:
        super()._restore_config(config)
        universe = config.get("universe_size")
        self.universe_size = None if universe is None else int(universe)


# ----------------------------------------------------------------------
# Backend: direct (collision-free per-event PBE map)
# ----------------------------------------------------------------------
class DirectMapStore(_SketchStore):
    """One PBE per seen event id — exact routing, approximate curves.

    The per-event PBE-1/PBE-2 usage of §III becomes a multi-event store:
    no hash collisions (estimates match a dedicated PBE per stream), at
    the cost of space linear in the number of distinct ids.  Bursty-event
    queries scan the *seen* ids, like the exact baseline.
    """

    backend_key = "direct"
    _kind = "direct map"
    _dump = staticmethod(dump_direct_map)
    _load = staticmethod(load_direct_map)

    def __init__(
        self,
        cell: str = "pbe1",
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
        _inner: DirectPBEMap | None = None,
        _spec: _CellSpec | None = None,
    ) -> None:
        spec = _spec if _spec is not None else _CellSpec(
            cell, eta, buffer_size, gamma, unit
        )
        super().__init__(
            spec,
            _inner if _inner is not None else DirectPBEMap(spec.factory()),
        )

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        return _scan_hits(self, self.inner.ids(), t, theta, tau)


# ----------------------------------------------------------------------
# Backend: index (dyadic bursty-event index)
# ----------------------------------------------------------------------
class DyadicIndexStore(_SketchStore):
    """The §V dyadic index behind the :class:`BurstStore` surface.

    Point and bursty-time queries are answered from the leaf-level
    CM-PBE; bursty-event queries use the pruned descent.
    """

    backend_key = "index"
    _kind = "index"
    _dump = staticmethod(dump_index)
    _load = staticmethod(load_index)

    def __init__(
        self,
        universe_size: int | None = None,
        cell: str = "pbe1",
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
        width: int = 6,
        depth: int = 3,
        combiner: str = "median",
        seed: int = 0,
        _inner: BurstyEventIndex | None = None,
        _spec: _CellSpec | None = None,
    ) -> None:
        spec = _spec if _spec is not None else _CellSpec(
            cell, eta, buffer_size, gamma, unit
        )
        if _inner is None:
            if universe_size is None:
                raise InvalidParameterError(
                    "the index backend requires universe_size"
                )
            _inner = BurstyEventIndex(
                universe_size,
                cell_factory=spec.factory(),
                width=width,
                depth=depth,
                combiner=combiner,
                seed=seed,
            )
        super().__init__(spec, _inner)
        self.universe_size = _inner.universe_size

    @property
    def _leaf(self) -> CMPBE | DirectPBEMap:
        return self.inner.level_sketch(0)

    def _levels(self) -> list[CMPBE | DirectPBEMap]:
        return [
            self.inner.level_sketch(level)
            for level in range(self.inner.n_levels)
        ]

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        return _canonical_hits(self.inner.bursty_events(t, theta, tau))

    def _check_merge(self, other: "DyadicIndexStore") -> None:
        if self.universe_size != other.universe_size:
            raise InvalidParameterError("universe sizes differ; cannot merge")

    def _inner_from_levels(self, levels: list) -> BurstyEventIndex:
        leaf = self._leaf
        inner = BurstyEventIndex(
            self.universe_size,
            cell_factory=self.spec.factory(),
            width=getattr(leaf, "width", 1),
            depth=getattr(leaf, "depth", 1),
            combiner=getattr(leaf, "combiner", "median"),
            seed=getattr(leaf, "seed", 0),
        )
        inner._levels = levels
        return inner


# ----------------------------------------------------------------------
# Backend: sharded (hash-partitioned composite)
# ----------------------------------------------------------------------
_FIB_MIX = 0x9E3779B97F4A7C15  # 2^64 / golden ratio — Fibonacci hashing
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def shard_routes(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """The owning shard of every id in ``ids`` (int64), equal per id to
    :meth:`ShardedBurstStore.shard_of`: the one routing rule that the
    sharded store, the parallel-ingest coordinator and rebalancing
    share, so every path puts a record in the same shard."""
    mixed = ids.astype(np.uint64) * np.uint64(_FIB_MIX)
    return (mixed % np.uint64(n_shards)).astype(np.int64)


class ShardedBurstStore(_StoreBase):
    """Hash-partitions event ids across ``shards`` child backends.

    Every per-event operation (ingest, point, bursty-time, peak) is
    routed to the owning shard; bursty-event queries fan out to every
    shard and keep only hits the shard owns (a child summarizing the
    whole universe reports nothing for ids routed elsewhere beyond hash
    noise, which the ownership filter removes).  ``merge`` combines two
    sharded stores shard-by-shard, so parallel time-range builds compose
    with id-space partitioning.
    """

    backend_key = "sharded"

    def __init__(
        self,
        shards: int = 2,
        backend: str = "cm-pbe-1",
        _children: list[BurstStore] | None = None,
        **child_cfg,
    ) -> None:
        super().__init__()
        if shards <= 0:
            raise InvalidParameterError(f"shards must be > 0, got {shards}")
        if backend == "sharded":
            raise InvalidParameterError("sharded shards cannot be sharded")
        self.n_shards = int(shards)
        self.child_backend = backend
        self.child_cfg = dict(child_cfg)
        if _children is not None:
            if len(_children) != self.n_shards:
                raise InvalidParameterError("shard count mismatch")
            self.shards = _children
        else:
            self.shards = [
                create_store(backend, **child_cfg)
                for _ in range(self.n_shards)
            ]
        self._pool: ThreadPoolExecutor | None = None
        metrics = global_registry()
        self._point_batches_total = metrics.counter(
            "sharded_point_query_batches_total",
            "batched point queries fanned out across shards",
        )
        self._event_queries_total = metrics.counter(
            "sharded_bursty_event_queries_total",
            "bursty-event queries fanned out across shards",
        )
        self._fanout_groups = metrics.histogram(
            "sharded_fanout_groups",
            "shards touched per fanned-out query",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._shard_seconds = metrics.histogram(
            "sharded_shard_seconds",
            "per-shard latency inside a fan-out (seconds)",
        )

    # -- fan-out pool --------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        """One persistent pool per store, created on first fan-out.

        A fresh executor per query call costs thread spawn/teardown on
        the hot serving path; the pool lives until :meth:`close`.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards,
                thread_name_prefix="repro-shard",
            )
        return self._pool

    def close(self) -> None:
        """Shut down the fan-out pool and close every child (idempotent).

        The pool is recreated lazily if the store is queried again;
        durable children release their WALs and stop accepting writes.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def __del__(self) -> None:
        try:
            pool = self.__dict__.get("_pool")
            if pool is not None:
                pool.shutdown(wait=False)
        except Exception:
            pass

    def _timed(self, fn, *args):
        with self._shard_seconds.time():
            return fn(*args)

    def _submit(self, fn, *args):
        """Run ``fn(*args)``, timed, on the fan-out pool inside a copy of
        the caller's context: pool threads start with an empty one, and
        a shard's spans must stay children of the caller's span."""
        return self._executor().submit(
            contextvars.copy_context().run, self._timed, fn, *args
        )

    # -- routing -------------------------------------------------------
    def shard_of(self, event_id: int) -> int:
        """The shard index owning ``event_id`` (Fibonacci-mixed hash)."""
        return ((int(event_id) * _FIB_MIX) & _U64_MASK) % self.n_shards

    def _owner(self, event_id: int) -> BurstStore:
        return self.shards[self.shard_of(event_id)]

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return getattr(self.shards[0], "piecewise", "constant")

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self._owner(event_id)._ingest(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        routes = shard_routes(ids, self.n_shards)
        for shard_index, order in _iter_groups(routes):
            self.shards[shard_index]._ingest_batch(
                ids[order],
                ts[order],
                None if counts is None else counts[order],
            )

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self._owner(event_id)._point(event_id, t, tau)

    def _point_batch(self, ids, times, tau: float) -> np.ndarray:
        """Route each pair to its owning shard, one batch per shard.

        Shard batches run concurrently on a thread pool (each shard is an
        independent store, so there is no shared mutable query state) and
        scatter back into stream order.
        """
        out = np.empty(ids.size, dtype=np.float64)
        if ids.size == 0:
            return out
        groups = list(_iter_groups(shard_routes(ids, self.n_shards)))
        self._point_batches_total.inc()
        self._fanout_groups.observe(len(groups))
        with _trace_span(
            "sharded.fanout",
            op="point_batch",
            shards=len(groups),
            pairs=int(ids.size),
        ):
            if len(groups) == 1:
                shard_index, order = groups[0]
                out[order] = self._timed(
                    self.shards[shard_index]._point_batch,
                    ids[order], times[order], tau,
                )
                return out
            futures = [
                (
                    order,
                    self._submit(
                        self.shards[shard_index]._point_batch,
                        ids[order],
                        times[order],
                        tau,
                    ),
                )
                for shard_index, order in groups
            ]
            for order, future in futures:
                out[order] = future.result()
            return out

    def _bursty_times(
        self, event_id, theta, tau, t_end, merge_gap, piecewise
    ) -> list[tuple[float, float]]:
        if t_end is None and self._t_end != float("-inf"):
            t_end = self._t_end + 2 * tau
        return self._owner(event_id)._bursty_times(
            event_id, theta, tau, t_end, merge_gap, piecewise
        )

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Fan out to every shard, keep each shard's owned ids only.

        Shards are queried concurrently on a thread pool; per-shard hit
        lists are collected in shard order before the ownership filter,
        so results match the sequential fan-out exactly.
        """
        self._event_queries_total.inc()
        self._fanout_groups.observe(self.n_shards)
        with _trace_span(
            "sharded.fanout", op="bursty_events", shards=self.n_shards
        ):
            if self.n_shards == 1:
                shard_hits = [
                    self._timed(
                        self.shards[0]._bursty_events, t, theta, tau
                    )
                ]
            else:
                futures = [
                    self._submit(shard._bursty_events, t, theta, tau)
                    for shard in self.shards
                ]
                shard_hits = [future.result() for future in futures]
        hits = [
            hit
            for index, per_shard in enumerate(shard_hits)
            for hit in per_shard
            if self.shard_of(hit.event_id) == index
        ]
        return _canonical_hits(hits)

    def _peak(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        return self._owner(event_id)._peak(event_id, t_start, t_end, tau)

    def segment_starts(self, event_id: int) -> list[float]:
        return self._owner(event_id).segment_starts(event_id)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return self._owner(event_id).cumulative_frequency(event_id, t)

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self._owner(event_id).cumulative_frequency_many(event_id, ts)

    def export_records(self) -> tuple[np.ndarray, np.ndarray]:
        exports = [shard.export_records() for shard in self.shards]
        exports = [(ids, ts) for ids, ts in exports if ids.size]
        if not exports:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        ids = np.concatenate([pair[0] for pair in exports])
        ts = np.concatenate([pair[1] for pair in exports])
        order = np.lexsort((ids, ts))
        return ids[order], ts[order]

    # -- accounting ----------------------------------------------------
    @property
    def count(self) -> int:
        return sum(shard.count for shard in self.shards)

    def finalize(self) -> None:
        for shard in self.shards:
            shard.finalize()

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def seal(self) -> None:
        for shard in self.shards:
            shard.seal()

    def memory_elements(self) -> int:
        return sum(shard.memory_elements() for shard in self.shards)

    def size_in_bytes(self) -> int:
        return sum(shard.size_in_bytes() for shard in self.shards)

    # -- merge & codec -------------------------------------------------
    def merge(self, other: "ShardedBurstStore") -> "ShardedBurstStore":
        """Shard-wise merge (same shard count and child config required)."""
        if not isinstance(other, ShardedBurstStore):
            raise InvalidParameterError(
                "can only merge sharded with sharded"
            )
        if (
            self.n_shards != other.n_shards
            or self.child_backend != other.child_backend
        ):
            raise InvalidParameterError(
                "shard layouts differ; cannot merge"
            )
        children = [
            a.merge(b) for a, b in zip(self.shards, other.shards)
        ]
        merged = ShardedBurstStore(
            shards=self.n_shards,
            backend=self.child_backend,
            _children=children,
            **self.child_cfg,
        )
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["shards"] = self.n_shards
        config["backend"] = self.child_backend
        config["child_cfg"] = self.child_cfg
        return config

    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        for shard in self.shards:
            payload = shard.to_bytes()
            out.write(struct.pack("<Q", len(payload)))
            out.write(payload)
        return _pack_config(self._config(), out.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardedBurstStore":
        config, payload = _unpack_config(data)
        n_shards = int(config["shards"])
        child_backend = config["backend"]
        children: list[BurstStore] = []
        offset = 0
        for _ in range(n_shards):
            if len(payload) < offset + 8:
                raise SerializationError("truncated sharded payload")
            (length,) = struct.unpack_from("<Q", payload, offset)
            offset += 8
            if len(payload) < offset + length:
                raise SerializationError("truncated shard payload")
            children.append(
                load_backend(child_backend, payload[offset : offset + length])
            )
            offset += length
        store = cls(
            shards=n_shards,
            backend=child_backend,
            _children=children,
            **config.get("child_cfg", {}),
        )
        store._restore_config(config)
        return store


# ----------------------------------------------------------------------
# Registry population
# ----------------------------------------------------------------------
register_backend(
    "exact", ExactStore, ExactStore.from_bytes,
    "ground-truth per-event timestamp lists (O(n) space)",
)
register_backend(
    "cm-pbe-1",
    lambda **cfg: CMPBEStore(cell="pbe1", **cfg),
    CMPBEStore.from_bytes,
    "Count-Min grid of buffered staircase PBEs (paper §IV)",
)
register_backend(
    "cm-pbe-2",
    lambda **cfg: CMPBEStore(cell="pbe2", **cfg),
    CMPBEStore.from_bytes,
    "Count-Min grid of buffer-free PLA PBEs (paper §IV)",
)
register_backend(
    "direct", DirectMapStore, DirectMapStore.from_bytes,
    "collision-free per-event PBE map",
)
register_backend(
    "index", DyadicIndexStore, DyadicIndexStore.from_bytes,
    "dyadic CM-PBE hierarchy with pruned bursty-event descent (§V)",
)
register_backend(
    "sharded", ShardedBurstStore, ShardedBurstStore.from_bytes,
    "hash-partitioned composite over N child backends",
)

# The durable backend lives in its own module (it builds *on* the
# registry and the base class); importing it registers "durable".
from repro.core import durable as _durable  # noqa: E402,F401  (registration)
