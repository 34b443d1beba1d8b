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
``index``, ``sharded``, ``instrumented``, ``durable`` (the WAL +
memtable + sealed-segment lifecycle in :mod:`repro.core.durable`).
"""

from __future__ import annotations

import io
import json
import struct
from collections import defaultdict
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
    require_finite_time,
    require_tau,
    require_theta,
    require_time_range,
)
from repro.core.metrics import InstrumentedStore, global_registry
from repro.core.parallel import merge_pbe1, merge_pbe2
from repro.core.serialize import folded_sketch_cells
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
    values = store.point_query_batch(ids, np.full(ids.size, t), tau)
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
class _StoreBase:
    """Ingest bookkeeping and query plumbing shared by every backend."""

    backend_key = "base"

    def __init__(self) -> None:
        self._t_end = float("-inf")

    # -- ingest --------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` mentions of ``event_id`` at ``timestamp``."""
        require_finite_time(timestamp)
        self._inner_update(event_id, timestamp, count)
        if timestamp > self._t_end:
            self._t_end = float(timestamp)

    def extend(self, records: Iterable[tuple[int, float]]) -> None:
        """Ingest many ``(event_id, timestamp)`` pairs in stream order."""
        for event_id, timestamp in records:
            self.update(event_id, timestamp)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a columnar record batch."""
        ids, ts, counts = _validated_record_batch(
            event_ids, timestamps, counts
        )
        if ids.size == 0:
            return
        self._inner_extend_batch(ids, ts, counts)
        last = float(ts[-1])
        if last > self._t_end:
            self._t_end = last

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
        return float(self._point(event_id, t, tau))

    def _point(self, event_id: int, t: float, tau: float) -> float:
        """Backend hook of :meth:`point_query` (arguments validated)."""
        return burstiness_from_curve(_CurveView(self, event_id), t, tau)

    # Alias kept so a store can stand in anywhere a raw sketch was used.
    def burstiness(self, event_id: int, t: float, tau: float) -> float:
        """Alias of :meth:`point_query` (sketch-compatible spelling)."""
        return self.point_query(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        """Batched POINT QUERY: estimated ``b_e(t)`` per ``(e, t)`` pair.

        The base implementation is a scalar loop (correct for any
        backend); engines with a vectorized read path override it.
        Results are bit-identical to calling :meth:`point_query` per
        pair.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        out = np.empty(ids.size, dtype=np.float64)
        for i in range(ids.size):
            out[i] = self.point_query(int(ids[i]), float(times[i]), tau)
        return out

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
        ``b_e(t) >= theta``."""
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
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

    def peak_query(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        """``(t_star, b_star)``: the event's burstiest moment in a range."""
        require_time_range(t_start, t_end)
        return max_burstiness(
            self.curve(event_id),
            self.segment_starts(event_id),
            tau,
            t_start,
            t_end,
            piecewise=self.piecewise,
        )

    def bursty_event_query(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """BURSTY EVENT QUERY ``q(t, theta, tau)`` → the events with
        ``b_e(t) >= theta``."""
        require_finite_time(t)
        return self._bursty_events(t, theta, tau)

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Backend hook of :meth:`bursty_event_query` (``t`` validated)."""
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
            self._t_end = float(_inner._last_timestamp)

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner._append_batch(ids.astype(np.int64), ts, counts)

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self.inner.burstiness(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        return self.inner.burstiness_many(event_ids, ts, tau)

    def bursty_time_query(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
        piecewise: Literal["constant", "linear"] | None = None,
    ) -> list[tuple[float, float]]:
        # The exact burstiness is genuinely a step function, so any
        # requested ``piecewise`` mode degenerates to breakpoint scans.
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
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
        require_theta(theta)
        return _canonical_hits(self.inner.bursty_events(t, theta, tau))

    def peak_query(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        require_time_range(t_start, t_end)
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
        exact storage has no per-part state to offset)."""
        if not isinstance(other, ExactStore):
            raise InvalidParameterError("can only merge exact with exact")
        lists: dict[int, list[float]] = defaultdict(list)
        for part in (self, other):
            for event_id, times in part.inner._items():
                lists[event_id].extend(times)
        for times in lists.values():
            times.sort()
        last = max(
            (
                s.inner._last_timestamp
                for s in (self, other)
                if s.inner._last_timestamp is not None
            ),
            default=None,
        )
        merged = ExactStore(
            ExactBurstStore.from_lists(
                lists, self.inner.count + other.inner.count, last
            )
        )
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
        config, payload = _unpack_config(data)
        header = struct.Struct("<QQ")
        if len(payload) < header.size:
            raise SerializationError("truncated exact-store payload")
        count, n_events = header.unpack_from(payload)
        offset = header.size
        lists: dict[int, list[float]] = {}
        stored = 0
        for _ in range(n_events):
            if len(payload) < offset + 16:
                raise SerializationError("truncated exact-store payload")
            event_id, n_times = struct.unpack_from("<qQ", payload, offset)
            offset += 16
            end = offset + 8 * n_times
            if len(payload) < end:
                raise SerializationError("truncated exact-store payload")
            times = np.frombuffer(payload, dtype="<f8", count=n_times,
                                  offset=offset)
            lists[int(event_id)] = times.tolist()
            stored += n_times
            offset = end
        if offset != len(payload):
            raise SerializationError(
                f"{len(payload) - offset} trailing bytes after the last "
                "exact-store event"
            )
        if stored != count or len(lists) != n_events:
            raise SerializationError(
                f"exact-store header says {count} records of {n_events} "
                f"events; the payload holds {stored} of {len(lists)}"
            )
        store = cls(ExactBurstStore.from_lists(lists, int(count), None))
        store._restore_config(config)
        if store._t_end != float("-inf"):
            store.inner._last_timestamp = store._t_end
        return store


# ----------------------------------------------------------------------
# Backend: cm-pbe-1 / cm-pbe-2 (one flat CM-PBE grid)
# ----------------------------------------------------------------------
class CMPBEStore(_StoreBase):
    """A single CM-PBE grid (§IV) behind the :class:`BurstStore` surface.

    Bursty-event queries scan the id universe (``universe_size`` must be
    configured); use the ``index`` backend for the pruned §V descent.
    """

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
        super().__init__()
        self.spec = _spec if _spec is not None else _CellSpec(
            kind=cell, eta=eta, buffer_size=buffer_size, gamma=gamma,
            unit=unit,
        )
        self.universe_size = universe_size
        if _inner is not None:
            self.inner = _inner
        else:
            self.inner = CMPBE(
                cell_factory=self.spec.factory(),
                width=width,
                depth=depth,
                combiner=combiner,
                seed=seed,
            )

    @property
    def backend_key(self) -> str:  # type: ignore[override]
        return "cm-pbe-1" if self.spec.kind == "pbe1" else "cm-pbe-2"

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return self.spec.piecewise

    @classmethod
    def from_legacy(cls, inner: CMPBE) -> "CMPBEStore":
        """Wrap a v1 ``CMPB`` blob's sketch (cell spec inferred)."""
        first = inner._cells[0][0] if inner._cells else None
        return cls(_inner=inner, _spec=_CellSpec.from_cell(first))

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner.extend_batch(ids, ts, counts)

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self.inner.burstiness(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        return self.inner.burstiness_many(event_ids, ts, tau)

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        require_theta(theta)
        if self.universe_size is None:
            raise InvalidParameterError(
                "bursty event queries on a flat CM-PBE scan the id "
                "universe; configure universe_size (or use the 'index' "
                "backend)"
            )
        return _scan_hits(self, np.arange(self.universe_size), t, theta, tau)

    def segment_starts(self, event_id: int) -> list[float]:
        return self.inner.segment_starts(event_id)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return float(self.inner.cumulative_frequency(event_id, t))

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self.inner.cumulative_frequency_many(event_id, ts)

    # -- accounting ----------------------------------------------------
    @property
    def count(self) -> int:
        return self.inner.count

    def finalize(self) -> None:
        self.inner.finalize()

    def memory_elements(self) -> int:
        return sum(
            _cell_elements(cell)
            for row in self.inner._cells
            for cell in row
        )

    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes()

    # -- merge & codec -------------------------------------------------
    def _merge_compatible(self, other: "CMPBEStore") -> None:
        if not isinstance(other, CMPBEStore):
            raise InvalidParameterError("can only merge CM-PBE with CM-PBE")
        if not self.spec.matches(other.spec):
            raise InvalidParameterError("cell specs differ; cannot merge")
        a, b = self.inner, other.inner
        if (a.width, a.depth, a.combiner, a.seed) != (
            b.width, b.depth, b.combiner, b.seed,
        ):
            raise InvalidParameterError(
                "grid dimensions/seed differ; cannot merge"
            )

    def merge(self, other: "CMPBEStore") -> "CMPBEStore":
        """Cell-wise merge of two grids built over consecutive, disjoint
        time ranges (identical dimensions and hash seed required)."""
        self._merge_compatible(other)
        (merged_inner,) = _merge_levels(
            [(self.inner, other.inner)], self.spec
        )
        merged = CMPBEStore(
            universe_size=self.universe_size,
            _inner=merged_inner,
            _spec=self.spec,
        )
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["cell"] = self.spec.to_dict()
        config["universe_size"] = self.universe_size
        return config

    def to_bytes(self) -> bytes:
        from repro.core.serialize import dump_cmpbe

        return _pack_config(self._config(), dump_cmpbe(self.inner))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CMPBEStore":
        from repro.core.serialize import load_cmpbe

        config, payload = _unpack_config(data)
        universe = config.get("universe_size")
        store = cls(
            universe_size=None if universe is None else int(universe),
            _inner=load_cmpbe(payload),
            _spec=_CellSpec.from_dict(config["cell"]),
        )
        store._restore_config(config)
        return store


def _merge_levels(
    pairs: list[tuple], spec: _CellSpec
) -> list[CMPBE | DirectPBEMap]:
    """Merge ``(a, b)`` pairs of CM-PBE grids or direct maps.

    The live cells of every operand are folded on scratch copies in one
    batched call first, so merging never mutates a live sketch.
    """
    folded = iter(folded_sketch_cells([s for pair in pairs for s in pair]))
    merged: list[CMPBE | DirectPBEMap] = []
    for a, b in pairs:
        cells_a, cells_b = next(folded), next(folded)
        if isinstance(a, CMPBE) and isinstance(b, CMPBE):
            merged.append(_merge_cmpbe(a, b, cells_a, cells_b))
        elif isinstance(a, DirectPBEMap) and isinstance(b, DirectPBEMap):
            merged.append(
                _merge_direct(
                    dict(zip(a._cells, cells_a)),
                    dict(zip(b._cells, cells_b)),
                    a.count + b.count,
                    spec,
                )
            )
        else:
            raise InvalidParameterError("level layouts differ; cannot merge")
    return merged


def _merge_cmpbe(
    a: CMPBE, b: CMPBE, cells_a: list, cells_b: list
) -> CMPBE:
    """Merge two CM-PBE grids cell-by-cell (same dims/seed assumed) from
    their folded row-major cells."""
    merged_cells = [
        _merge_cells(cell_a, cell_b)
        for cell_a, cell_b in zip(cells_a, cells_b)
    ]
    iterator = iter(merged_cells)
    merged = CMPBE(
        cell_factory=lambda: next(iterator),
        width=a.width,
        depth=a.depth,
        combiner=a.combiner,
        seed=a.seed,
    )
    merged._count = a.count + b.count
    return merged


def _merge_direct(
    cells_a: dict, cells_b: dict, count: int, spec: _CellSpec
) -> DirectPBEMap:
    """Merge two direct maps from their folded id -> cell maps: union of
    ids, cell merge on overlap."""
    merged = DirectPBEMap(spec.factory())
    for event_id in sorted(set(cells_a) | set(cells_b)):
        cell_a = cells_a.get(event_id)
        cell_b = cells_b.get(event_id)
        if cell_a is not None and cell_b is not None:
            merged._cells[event_id] = _merge_cells(cell_a, cell_b)
        else:
            merged._cells[event_id] = _copy_cell(
                cell_a if cell_a is not None else cell_b
            )
    merged._count = count
    return merged


# ----------------------------------------------------------------------
# Backend: direct (collision-free per-event PBE map)
# ----------------------------------------------------------------------
class DirectMapStore(_StoreBase):
    """One PBE per seen event id — exact routing, approximate curves.

    The per-event PBE-1/PBE-2 usage of §III becomes a multi-event store:
    no hash collisions (estimates match a dedicated PBE per stream), at
    the cost of space linear in the number of distinct ids.  Bursty-event
    queries scan the *seen* ids, like the exact baseline.
    """

    backend_key = "direct"

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
        super().__init__()
        self.spec = _spec if _spec is not None else _CellSpec(
            kind=cell, eta=eta, buffer_size=buffer_size, gamma=gamma,
            unit=unit,
        )
        self.inner = (
            _inner if _inner is not None else DirectPBEMap(self.spec.factory())
        )

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return self.spec.piecewise

    @classmethod
    def from_legacy(cls, inner: DirectPBEMap) -> "DirectMapStore":
        """Wrap a v1 ``DMAP`` blob's map (cell spec inferred)."""
        first = next(iter(inner._cells.values()), None)
        spec = _CellSpec.from_cell(first)
        inner._cell_factory = spec.factory()
        return cls(_inner=inner, _spec=spec)

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner.extend_batch(ids, ts, counts)

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self.inner.burstiness(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        return self.inner.burstiness_many(event_ids, ts, tau)

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        require_theta(theta)
        return _scan_hits(self, self.inner.ids(), t, theta, tau)

    def segment_starts(self, event_id: int) -> list[float]:
        return self.inner.segment_starts(event_id)

    def cumulative_frequency(self, event_id: int, t: float) -> float:
        return float(self.inner.cumulative_frequency(event_id, t))

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        return self.inner.cumulative_frequency_many(event_id, ts)

    # -- accounting ----------------------------------------------------
    @property
    def count(self) -> int:
        return self.inner.count

    def finalize(self) -> None:
        self.inner.finalize()

    def memory_elements(self) -> int:
        return sum(
            _cell_elements(cell) for cell in self.inner._cells.values()
        )

    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes()

    # -- merge & codec -------------------------------------------------
    def merge(self, other: "DirectMapStore") -> "DirectMapStore":
        """Per-id merge of two maps built over consecutive, disjoint
        time ranges."""
        if not isinstance(other, DirectMapStore):
            raise InvalidParameterError(
                "can only merge direct map with direct map"
            )
        if not self.spec.matches(other.spec):
            raise InvalidParameterError("cell specs differ; cannot merge")
        (merged_inner,) = _merge_levels(
            [(self.inner, other.inner)], self.spec
        )
        merged = DirectMapStore(
            _inner=merged_inner,
            _spec=self.spec,
        )
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["cell"] = self.spec.to_dict()
        return config

    def to_bytes(self) -> bytes:
        from repro.core.serialize import dump_direct_map

        return _pack_config(self._config(), dump_direct_map(self.inner))

    @classmethod
    def from_bytes(cls, data: bytes) -> "DirectMapStore":
        from repro.core.serialize import load_direct_map

        config, payload = _unpack_config(data)
        spec = _CellSpec.from_dict(config["cell"])
        inner = load_direct_map(payload)
        inner._cell_factory = spec.factory()
        store = cls(_inner=inner, _spec=spec)
        store._restore_config(config)
        return store


# ----------------------------------------------------------------------
# Backend: index (dyadic bursty-event index)
# ----------------------------------------------------------------------
class DyadicIndexStore(_StoreBase):
    """The §V dyadic index behind the :class:`BurstStore` surface.

    Point and bursty-time queries are answered from the leaf-level
    CM-PBE; bursty-event queries use the pruned descent.
    """

    backend_key = "index"

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
        super().__init__()
        self.spec = _spec if _spec is not None else _CellSpec(
            kind=cell, eta=eta, buffer_size=buffer_size, gamma=gamma,
            unit=unit,
        )
        if _inner is not None:
            self.inner = _inner
        else:
            if universe_size is None:
                raise InvalidParameterError(
                    "the index backend requires universe_size"
                )
            self.inner = BurstyEventIndex(
                universe_size,
                cell_factory=self.spec.factory(),
                width=width,
                depth=depth,
                combiner=combiner,
                seed=seed,
            )
        self.universe_size = self.inner.universe_size

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return self.spec.piecewise

    @classmethod
    def from_legacy(cls, inner: BurstyEventIndex) -> "DyadicIndexStore":
        """Wrap a v1 ``BIDX`` blob's index (cell spec inferred)."""
        leaf = inner.level_sketch(0)
        if isinstance(leaf, CMPBE):
            first = leaf._cells[0][0] if leaf._cells else None
        else:
            first = next(iter(leaf._cells.values()), None)
        return cls(_inner=inner, _spec=_CellSpec.from_cell(first))

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self.inner.update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        self.inner.extend_batch(ids, ts, counts)

    # -- queries -------------------------------------------------------
    @property
    def _leaf(self) -> CMPBE | DirectPBEMap:
        return self.inner.level_sketch(0)

    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self._leaf.burstiness(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        return self._leaf.burstiness_many(event_ids, ts, tau)

    def _bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        require_tau(tau)
        return _canonical_hits(self.inner.bursty_events(t, theta, tau))

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
        total = 0
        for level in range(self.inner.n_levels):
            sketch = self.inner.level_sketch(level)
            if isinstance(sketch, CMPBE):
                total += sum(
                    _cell_elements(cell)
                    for row in sketch._cells
                    for cell in row
                )
            else:
                total += sum(
                    _cell_elements(cell)
                    for cell in sketch._cells.values()
                )
        return total

    def size_in_bytes(self) -> int:
        return self.inner.size_in_bytes()

    # -- merge & codec -------------------------------------------------
    def merge(self, other: "DyadicIndexStore") -> "DyadicIndexStore":
        """Level-wise merge of two indexes over disjoint time ranges."""
        if not isinstance(other, DyadicIndexStore):
            raise InvalidParameterError("can only merge index with index")
        if not self.spec.matches(other.spec):
            raise InvalidParameterError("cell specs differ; cannot merge")
        if self.universe_size != other.universe_size:
            raise InvalidParameterError("universe sizes differ; cannot merge")
        merged_levels = _merge_levels(
            [
                (
                    self.inner.level_sketch(level),
                    other.inner.level_sketch(level),
                )
                for level in range(self.inner.n_levels)
            ],
            self.spec,
        )
        merged_inner = BurstyEventIndex(
            self.universe_size,
            cell_factory=self.spec.factory(),
            width=getattr(self._leaf, "width", 1),
            depth=getattr(self._leaf, "depth", 1),
            combiner=getattr(self._leaf, "combiner", "median"),
            seed=getattr(self._leaf, "seed", 0),
        )
        merged_inner._levels = merged_levels
        merged = DyadicIndexStore(_inner=merged_inner, _spec=self.spec)
        merged._t_end = max(self._t_end, other._t_end)
        return merged

    def _config(self) -> dict:
        config = super()._config()
        config["cell"] = self.spec.to_dict()
        return config

    def to_bytes(self) -> bytes:
        from repro.core.serialize import dump_index

        return _pack_config(self._config(), dump_index(self.inner))

    @classmethod
    def from_bytes(cls, data: bytes) -> "DyadicIndexStore":
        from repro.core.serialize import load_index

        config, payload = _unpack_config(data)
        store = cls(
            _inner=load_index(payload),
            _spec=_CellSpec.from_dict(config["cell"]),
        )
        store._restore_config(config)
        return store


# ----------------------------------------------------------------------
# Backend: sharded (hash-partitioned composite)
# ----------------------------------------------------------------------
_FIB_MIX = 0x9E3779B97F4A7C15  # 2^64 / golden ratio — Fibonacci hashing
_U64_MASK = 0xFFFFFFFFFFFFFFFF


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

    # -- routing -------------------------------------------------------
    def shard_of(self, event_id: int) -> int:
        """The shard index owning ``event_id`` (Fibonacci-mixed hash)."""
        return ((int(event_id) * _FIB_MIX) & _U64_MASK) % self.n_shards

    def _shards_of(self, ids: np.ndarray) -> np.ndarray:
        mixed = ids.astype(np.uint64) * np.uint64(_FIB_MIX)
        return (mixed % np.uint64(self.n_shards)).astype(np.int64)

    def _owner(self, event_id: int) -> BurstStore:
        return self.shards[self.shard_of(event_id)]

    @property
    def piecewise(self) -> Literal["constant", "linear"]:  # type: ignore[override]
        return getattr(self.shards[0], "piecewise", "constant")

    # -- ingest --------------------------------------------------------
    def _inner_update(self, event_id, timestamp, count) -> None:
        self._owner(event_id).update(event_id, timestamp, count)

    def _inner_extend_batch(self, ids, ts, counts) -> None:
        routes = self._shards_of(ids)
        for shard_index, order in _iter_groups(routes):
            self.shards[shard_index].extend_batch(
                ids[order],
                ts[order],
                None if counts is None else counts[order],
            )

    # -- queries -------------------------------------------------------
    def _point(self, event_id: int, t: float, tau: float) -> float:
        return self._owner(event_id).point_query(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float) -> np.ndarray:
        """Route each pair to its owning shard, one batch per shard.

        Shard batches run concurrently on a thread pool (each shard is an
        independent store, so there is no shared mutable query state) and
        scatter back into stream order.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        out = np.empty(ids.size, dtype=np.float64)
        if ids.size == 0:
            return out
        groups = list(_iter_groups(self._shards_of(ids)))
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
                    self.shards[shard_index].point_query_batch,
                    ids[order], times[order], tau,
                )
                return out
            pool = self._executor()
            futures = [
                (
                    order,
                    pool.submit(
                        self._timed,
                        self.shards[shard_index].point_query_batch,
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

    def bursty_time_query(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
        piecewise: Literal["constant", "linear"] | None = None,
    ) -> list[tuple[float, float]]:
        if t_end is None and self._t_end != float("-inf"):
            t_end = self._t_end + 2 * tau
        elif t_end is not None:
            require_finite_time(t_end)
        return self._owner(event_id).bursty_time_query(
            event_id, theta, tau,
            t_end=t_end, merge_gap=merge_gap, piecewise=piecewise,
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
                        self.shards[0].bursty_event_query, t, theta, tau
                    )
                ]
            else:
                pool = self._executor()
                shard_hits = list(
                    pool.map(
                        lambda shard: self._timed(
                            shard.bursty_event_query, t, theta, tau
                        ),
                        self.shards,
                    )
                )
        hits = [
            hit
            for index, per_shard in enumerate(shard_hits)
            for hit in per_shard
            if self.shard_of(hit.event_id) == index
        ]
        return _canonical_hits(hits)

    def peak_query(
        self, event_id: int, t_start: float, t_end: float, tau: float
    ) -> tuple[float, float]:
        require_time_range(t_start, t_end)
        return self._owner(event_id).peak_query(
            event_id, t_start, t_end, tau
        )

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
register_backend(
    "instrumented", InstrumentedStore, InstrumentedStore.from_bytes,
    "metrics-collecting wrapper around any child backend",
)

# The durable backend lives in its own module (it builds *on* the
# registry and the base class); importing it registers "durable".
from repro.core import durable as _durable  # noqa: E402,F401  (registration)
