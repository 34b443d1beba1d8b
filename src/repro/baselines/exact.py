"""Exact baseline (paper §II-B).

Stores every event's full timestamp list and answers all three query types
exactly:

* point query — ``O(log n)`` via binary search,
* bursty time query — evaluated at the ``O(n)`` breakpoints of the
  piecewise-constant burstiness function,
* bursty event query — window counts over a time-ordered record log:
  ``b_e(t) = #(t - tau, t] - #(t - 2 tau, t - tau]`` is three
  ``searchsorted`` calls and two ``bincount`` calls per table, whatever
  the number of events.

Space is ``O(n)`` — the cost the PBE sketches avoid.  The baseline doubles
as the ground-truth oracle for every accuracy experiment.

Every query reads a *stack* of per-event tables whose union is the
history.  A plain store's stack is its own table; a :meth:`stacked
<ExactBurstStore.stacked>` view puts the tables of other, immutable
stores under its own, so it answers over their union without copying or
re-sorting them.  Counts ``F_e`` are integers, so per-table counts sum to
exactly the counts of the merged lists: a stacked view answers every
query bit-identically to the merged store.

A store's own table holds append-only Python lists.  An immutable part
(a decoded segment, a merge result) is *columnar*: each event's run is a
zero-copy, read-only ``float64`` memoryview, into the segment payload
(an ``mmap`` when the segment was opened lazily) or into the one column
a merge concatenates.  Python's ``bisect`` reads such a view at list
speed and ``np.asarray`` wraps it without a copy, so every reader below
serves both kinds.  A columnar part sits under an empty own table, so a
decoded or merged store still accepts appends after its horizon.

Each table also carries a record log: its records in time order as a
``float64`` time column and an ``int32`` code column, where a code is
the event's index in the table's first-seen key order.  A store that
ingests appends to its log (the stream arrives in time order); a
columnar table derives its log from its runs on its first bursty-event
query — one stable argsort of the concatenated times, with each run's
code repeated over it — and keeps it.

A stacked table may also be *bounded*: a :meth:`snapshot
<ExactBurstStore.snapshot>` shares the source's own (append-only) lists
and log and records each list's length, the log's length and its key
count at snapshot time, so it reads only the prefix that can never
change.  Every reader honours the bound: bisects stop at ``n``,
whole-list readers slice ``[:n]`` and iterate the bound's keys, never
the live table, and log readers stop at the bound's record count.
"""

from __future__ import annotations

import bisect
import mmap
import threading
from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.cmpbe import _validated_query_batch
from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_finite_time,
    require_tau,
)
from repro.streams.events import EventStream

__all__ = ["ExactBurstStore"]

# Point batches answer an event's group of at most this many pairs with
# three bisects per pair and list; larger groups convert the queried
# window once and search it with numpy.
_SMALL_GROUP = 8

# Log and merge columns of more than this many bytes get their own
# anonymous mapping instead of a malloc block: a retired log or merged
# part (a replaced read view, a grown buffer) then hands its pages back
# to the OS at once instead of leaving a hole that the malloc heap keeps
# resident.  On the live-exact benchmark that is about 15 MB of peak RSS.
_MAPPED_COLUMN_BYTES = 1 << 20


def _burstiness_in(
    times: Sequence[float], n: int | None, t: float, tau: float
) -> int:
    """``b(t)`` over the first ``n`` entries (all if ``None``) of one
    sorted timestamp list."""
    return (
        bisect.bisect_right(times, t, 0, n)
        - 2 * bisect.bisect_right(times, t - tau, 0, n)
        + bisect.bisect_right(times, t - 2 * tau, 0, n)
    )


def _visible(times: Sequence[float], n: int | None) -> Sequence[float]:
    """The part of a stacked run a store reads: the run itself when
    unbounded, a copy of its ``[0, n)`` prefix when bounded."""
    return times if n is None else times[:n]


def _window_counts(
    times: Sequence[float],
    n: int | None,
    lo: float,
    hi: float,
    ts: np.ndarray,
) -> np.ndarray:
    """``#{x in times[:n] : x <= t}`` for every ``t`` in ``ts``, all of
    which lie in ``[lo, hi]``: only the window ``(lo, hi]`` is converted
    and searched."""
    start = bisect.bisect_right(times, lo, 0, n)
    window = times[start : bisect.bisect_right(times, hi, start, n)]
    return start + np.searchsorted(
        np.asarray(window, dtype=np.float64), ts, side="right"
    )


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable argsort of ``ids``, the sorted ids, and the edges
    ``[0, ..., ids.size]`` of their runs of equal ids."""
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    edges = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    return order, grouped, np.concatenate(([0], edges, [ids.size]))


def _column(size: int, dtype) -> np.ndarray:
    """An uninitialised 1-d array for a log or merge column."""
    dtype = np.dtype(dtype)
    if size * dtype.itemsize <= _MAPPED_COLUMN_BYTES:
        return np.empty(size, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype=dtype)


class _RecordLog:
    """One table's records in time order: ``ts`` (float64) and ``codes``
    (int32), where a code indexes ``keys``, the table's event ids in
    first-seen order.

    Only ``[0, n)`` holds records.  Writers append past ``n`` and grow a
    full buffer by copying it into a larger one before publishing it, so
    a reader that took ``n`` earlier finds that prefix intact in
    whichever buffer it reads.
    """

    __slots__ = ("ts", "codes", "n", "keys", "code_of", "_key_array")

    def __init__(self, ts: np.ndarray, codes: np.ndarray, keys: list[int]):
        self.ts = ts
        self.codes = codes
        self.n = ts.size
        self.keys = keys
        self.code_of = {event_id: code for code, event_id in enumerate(keys)}
        self._key_array = np.empty(0, dtype=np.int64)

    @classmethod
    def derived(cls, table: dict) -> "_RecordLog":
        """The log of a table as it stands: its runs in stable time
        order.

        The runs, concatenated in key order, are argsorted once by time,
        and each run's code is repeated over its records; the large
        columns are allocated with :func:`_column`.
        """
        runs = list(table.values())
        lengths = np.fromiter(map(len, runs), np.int64, len(runs))
        size = int(lengths.sum())
        flat = _column(size, np.float64)
        if runs:
            np.concatenate(runs, out=flat)
        order = np.argsort(flat, kind="stable")
        ts, codes = _column(size, np.float64), _column(size, np.int32)
        np.take(flat, order, out=ts)
        np.take(
            np.repeat(np.arange(len(runs), dtype=np.int32), lengths),
            order,
            out=codes,
        )
        return cls(ts, codes, list(table))

    def code(self, event_id: int) -> int:
        """The event's code, assigning the next one on first sight."""
        code = self.code_of.get(event_id)
        if code is None:
            code = self.code_of[event_id] = len(self.keys)
            self.keys.append(event_id)
        return code

    def _grow(self, size: int) -> None:
        # By a quarter, not by doubling, to bound the unused tail.
        size = max(size, self.ts.size + self.ts.size // 4, 256)
        n = self.n
        ts = _column(size, np.float64)
        ts[:n] = self.ts[:n]
        codes = _column(size, np.int32)
        codes[:n] = self.codes[:n]
        self.ts, self.codes = ts, codes  # copy first, then publish

    def append(self, t: float, code: int) -> None:
        n = self.n
        if n == self.ts.size:
            self._grow(n + 1)
        self.ts[n] = t
        self.codes[n] = code
        self.n = n + 1

    def extend(self, ts: np.ndarray, codes: np.ndarray) -> None:
        n, end = self.n, self.n + ts.size
        if end > self.ts.size:
            self._grow(end)
        self.ts[n:end] = ts
        self.codes[n:end] = codes
        self.n = end

    def key_array(self, n_keys: int) -> np.ndarray:
        """The first ``n_keys`` keys as int64, converted once per growth."""
        if self._key_array.size < n_keys:
            self._key_array = np.asarray(self.keys[:], dtype=np.int64)
        return self._key_array[:n_keys]

    def window_values(
        self, n: int, n_keys: int, lags: np.ndarray
    ) -> np.ndarray:
        """``b`` per code over ``[0, n)``: ``lags`` is ``(t - 2 tau,
        t - tau, t)``, the windows are ``(t - tau, t]`` minus
        ``(t - 2 tau, t - tau]``."""
        lo, mid, hi = np.searchsorted(
            self.ts[:n], lags, side="right"
        ).tolist()
        codes = self.codes
        return np.bincount(codes[mid:hi], minlength=n_keys) - np.bincount(
            codes[lo:mid], minlength=n_keys
        )


class _Table(defaultdict):
    """A store's own table: per-event sorted lists, plus the record log.

    The log is ``None`` until the first append or snapshot derives it
    (empty), and is appended to from then on.
    """

    __slots__ = ("log",)


class _Columns(dict):
    """An immutable part's table: per-event sorted runs as read-only
    ``float64`` memoryviews, plus the record log (``None`` until first
    derived)."""

    __slots__ = ("log",)


def _interleaved(runs: list) -> bool:
    """Whether sorted ``runs``, concatenated in order, are out of time
    order: some non-empty run starts before an earlier one ends."""
    runs = [run for run in runs if len(run)]
    return any(
        later[0] < earlier[-1] for earlier, later in zip(runs, runs[1:])
    )


class _Bound(dict):
    """A shared table's bound: per-event list lengths, plus the log's
    record and key counts, all taken at snapshot time."""

    __slots__ = ("n_records", "n_keys")


# Serializes first derivations, so a part derives its log at most once.
_DERIVE_LOCK = threading.Lock()


def _log_of(table: _Table | _Columns) -> _RecordLog:
    """The table's record log, derived and published on first use."""
    log = table.log
    if log is None:
        with _DERIVE_LOCK:
            log = table.log
            if log is None:
                log = table.log = _RecordLog.derived(table)
    return log


def _last_timestamp_of(parts: Sequence["ExactBurstStore"]) -> float | None:
    """The latest last timestamp of ``parts`` (``None`` if all empty)."""
    return max(
        (
            part._last_timestamp
            for part in parts
            if part._last_timestamp is not None
        ),
        default=None,
    )


class ExactBurstStore:
    """Ground-truth store: per-event sorted timestamp lists.

    ``_timestamps`` is the store's own, writable table; ``_tables`` is
    the stack every query reads, with the own table last.  ``_bounds``
    runs parallel to ``_tables``: ``None`` reads the whole table, a
    :class:`_Bound` reads only the prefixes it records.  No store holds
    a reference to itself, so a dropped store is freed at once.
    """

    def __init__(self) -> None:
        self._timestamps = _Table(list)
        self._timestamps.log = None
        self._tables: tuple[_Table, ...] = (self._timestamps,)
        self._bounds: tuple[_Bound | None, ...] = (None,)
        self._last_timestamp: float | None = None
        self._count = 0

    @classmethod
    def stacked(cls, parts: Sequence["ExactBurstStore"]) -> "ExactBurstStore":
        """A store answering over the union of ``parts`` in O(parts).

        The parts' tables are shared, not copied, so the parts must never
        change again; the view's own table starts empty and stays
        writable (stream order continues from the parts' last timestamp).
        """
        view = cls()
        stack = [
            (table, bound)
            for part in parts
            for table, bound in zip(part._tables, part._bounds)
            if (table if bound is None else bound)
        ]
        view._tables = (*(table for table, _ in stack), view._timestamps)
        view._bounds = (*(bound for _, bound in stack), None)
        view._count = sum(part._count for part in parts)
        view._last_timestamp = _last_timestamp_of(parts)
        return view

    @classmethod
    def from_columns(
        cls,
        runs: dict[int, memoryview],
        count: int,
        last_timestamp: float | None,
    ) -> "ExactBurstStore":
        """A store over immutable per-event runs (sorted, read-only
        ``float64`` memoryviews), taken over as is, under an empty own
        table that accepts appends after ``last_timestamp``.  The runs'
        record log is derived on the first bursty-event query, so
        building one (a decoded segment, a merge result) costs no sort."""
        store = cls()
        if runs:
            table = _Columns(runs)
            table.log = None
            store._tables = (table, store._timestamps)
            store._bounds = (None, None)
        store._count = count
        store._last_timestamp = last_timestamp
        return store

    @classmethod
    def merged(cls, parts: Sequence["ExactBurstStore"]) -> "ExactBurstStore":
        """One columnar store holding the union of ``parts``.

        Every event's runs are concatenated, in part and stack order,
        into one ``float64`` column (allocated with :func:`_column`), and
        the store's runs are views into it.  Only an event whose runs
        interleave in time is sorted, stably, so its equal times keep
        part order: the result equals extending the lists in that order
        and sorting each one.
        """
        runs: dict[int, list] = defaultdict(list)
        for part in parts:
            for event_id, times in part._items():
                runs[event_id].append(times)
        pieces = [run for event_runs in runs.values() for run in event_runs]
        column = _column(sum(map(len, pieces)), np.float64)
        if pieces:
            np.concatenate(pieces, out=column)
        view = memoryview(column).toreadonly()
        columns: dict[int, memoryview] = {}
        start = 0
        for event_id, event_runs in runs.items():
            stop = start + sum(map(len, event_runs))
            if _interleaved(event_runs):
                column[start:stop].sort(kind="stable")
            columns[event_id] = view[start:stop]
            start = stop
        return cls.from_columns(
            columns,
            sum(part._count for part in parts),
            _last_timestamp_of(parts),
        )

    def snapshot(self) -> "ExactBurstStore":
        """An independent, writable copy in O(events).

        The copy shares every stacked table and bounds this store's own
        table by its current list lengths and log length.  Writers only
        append, so the bounded prefixes never change and later writes to
        either store stay invisible to the other.
        """
        copy = ExactBurstStore()
        log = _log_of(self._timestamps)
        own = _Bound(
            {
                event_id: len(times)
                for event_id, times in self._timestamps.items()
                if times
            }
        )
        own.n_records, own.n_keys = log.n, len(log.keys)
        shared = ((self._timestamps, own),) if own else ()
        copy._tables = (
            *self._tables[:-1],
            *(table for table, _ in shared),
            copy._timestamps,
        )
        copy._bounds = (
            *self._bounds[:-1],
            *(bound for _, bound in shared),
            None,
        )
        copy._last_timestamp = self._last_timestamp
        copy._count = self._count
        return copy

    @classmethod
    def from_stream(
        cls, stream: EventStream | Iterable[tuple[int, float]]
    ) -> "ExactBurstStore":
        """Build a store from a timestamp-ordered event stream."""
        store = cls()
        for event_id, timestamp in stream:
            store.update(event_id, timestamp)
        return store

    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Record ``count`` mentions of ``event_id`` at ``timestamp``."""
        require_count(count)
        require_finite_time(timestamp)
        if (
            self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            raise StreamOrderError(
                f"timestamp {timestamp} arrived after {self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        event_id, timestamp = int(event_id), float(timestamp)
        log = _log_of(self._timestamps)  # derived before the table grows
        self._timestamps[event_id].extend([timestamp] * count)
        code = log.code(event_id)
        for _ in range(count):
            log.append(timestamp, code)
        self._count += count

    def _append_batch(
        self, ids: np.ndarray, ts: np.ndarray, counts: np.ndarray | None
    ) -> None:
        """Append a validated, non-decreasing record batch (``ids``
        int64): each event's list grows by one slice of the batch sorted
        by event, the log by the batch in stream order."""
        first = float(ts[0])
        if self._last_timestamp is not None and first < self._last_timestamp:
            raise StreamOrderError(
                f"timestamp {first} arrived after {self._last_timestamp}"
            )
        log = _log_of(self._timestamps)
        order, grouped, edges = _runs(ids)
        event_ids = grouped[edges[:-1]].tolist()
        group_codes = [log.code_of.get(event_id) for event_id in event_ids]
        if None in group_codes:  # first sight: codes in table insertion order
            group_codes = [log.code(event_id) for event_id in event_ids]
        codes = np.empty(ids.size, dtype=np.int32)
        codes[order] = np.repeat(
            np.asarray(group_codes, dtype=np.int32), np.diff(edges)
        )
        grouped_ts = ts[order]
        if counts is not None:
            grouped_ts = np.repeat(grouped_ts, counts[order])
            edges = np.concatenate(([0], np.cumsum(counts[order])))[edges]
            ts, codes = np.repeat(ts, counts), np.repeat(codes, counts)
        times = grouped_ts.tolist()
        bounds = edges.tolist()
        table = self._timestamps
        for event_id, start, stop in zip(event_ids, bounds, bounds[1:]):
            table[event_id].extend(times[start:stop])
        log.extend(ts, codes)
        self._count += int(ts.size)
        self._last_timestamp = float(ts[-1])

    # ------------------------------------------------------------------
    def _lists_of(
        self, event_id: int
    ) -> list[tuple[Sequence[float], int | None]]:
        """The event's non-empty sorted runs, one per stacked table, each
        with its bound (``None`` reads the whole run)."""
        return [
            (times, n)
            for table, bound in zip(self._tables, self._bounds)
            if (times := table.get(event_id))
            and (n := None if bound is None else bound.get(event_id, 0)) != 0
        ]

    def _items(self) -> Iterator[tuple[int, Sequence[float]]]:
        """``(event_id, sorted run)`` for every list or columnar run of
        every stacked table (an event appears once per table holding
        it).  Unbounded runs are yielded as they are and must not be
        mutated; a bounded table is walked through its bound's keys and
        yields copies."""
        for table, bound in zip(self._tables, self._bounds):
            if bound is None:
                yield from table.items()
            else:
                for event_id, n in bound.items():
                    yield event_id, table[event_id][:n]

    def event_ids(self) -> list[int]:
        """Every event id seen so far."""
        keys = (
            table if bound is None else bound
            for table, bound in zip(self._tables, self._bounds)
        )
        return sorted(set().union(*keys))

    def cumulative_frequency(self, event_id: int, t: float) -> int:
        """Exact ``F_e(t)``."""
        require_finite_time(t)
        return sum(
            bisect.bisect_right(times, t, 0, n)
            for times, n in self._lists_of(int(event_id))
        )

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized :meth:`cumulative_frequency` over query times.

        Each stacked list is bisected to the queried window
        ``(min ts, max ts]``; only that slice is searched, so the cost
        does not grow with the event's history outside the window.
        """
        ts = require_finite_time(np.asarray(ts, dtype=np.float64))
        counts = np.zeros(ts.shape, dtype=np.int64)
        if ts.size == 0:
            return counts.astype(np.float64)
        lo, hi = float(ts.min()), float(ts.max())
        for times, n in self._lists_of(int(event_id)):
            counts += _window_counts(times, n, lo, hi, ts)
        return counts.astype(np.float64)

    def burstiness(self, event_id: int, t: float, tau: float) -> int:
        """Exact ``b_e(t)``."""
        require_tau(tau)
        require_finite_time(t)
        return sum(
            _burstiness_in(times, n, t, tau)
            for times, n in self._lists_of(int(event_id))
        )

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Vectorized :meth:`burstiness` over ``(event_id, t)`` pairs.

        One stable argsort groups the pairs by event.  A group of at
        most ``_SMALL_GROUP`` pairs runs three bisects per pair and list;
        a larger one converts only each list's window
        ``(min t - 2 tau, max t]`` and searches it once per lag.  Counts
        are exact integers, so the float64 result is bit-identical to the
        scalar path either way.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        counts = np.zeros(ids.size, dtype=np.int64)
        if ids.size == 0:
            return counts.astype(np.float64)
        order, grouped, edges = _runs(ids)
        bounds = edges.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            lists = self._lists_of(int(grouped[start]))
            if not lists:
                continue
            rows = order[start:stop]
            queried = times[rows]
            if stop - start <= _SMALL_GROUP:
                counts[rows] = [
                    sum(
                        _burstiness_in(stored, n, t, tau)
                        for stored, n in lists
                    )
                    for t in queried.tolist()
                ]
                continue
            lags = np.concatenate(
                (queried, queried - tau, queried - 2 * tau)
            )
            lo, hi = float(lags.min()), float(queried.max())
            found = sum(
                _window_counts(stored, n, lo, hi, lags)
                for stored, n in lists
            )
            size = rows.size
            counts[rows] = (
                found[:size] - 2 * found[size : 2 * size] + found[2 * size :]
            )
        return counts.astype(np.float64)

    def bursty_times(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
    ) -> list[tuple[float, float]]:
        """Exact bursty time query: maximal intervals where ``b(t) >= theta``.

        ``b_e`` is a right-continuous step function whose value changes only
        where ``t``, ``t - tau`` or ``t - 2 tau`` crosses an occurrence,
        so evaluating at those breakpoints suffices.  The breakpoints
        ``<= end`` come from one ``np.unique``, their burstiness from
        one ``searchsorted`` per stacked list over all three lags; an
        interval still open at the last breakpoint closes at ``end``
        (``(end, end)`` when it opens there).
        """
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
        lists = [
            np.asarray(_visible(times, n), dtype=np.float64)
            for times, n in self._lists_of(int(event_id))
        ]
        if not lists:
            return []
        end = (
            t_end
            if t_end is not None
            else max(float(stored[-1]) for stored in lists) + 2 * tau
        )
        stored = np.concatenate(lists)
        # Record-major (t, t + tau, t + 2 tau) order: of two equal
        # breakpoints 0.0 and -0.0, the first one in this order is kept.
        shifted = np.column_stack(
            (stored, stored + tau, stored + 2 * tau)
        ).ravel()
        shifted = shifted[shifted <= end]
        candidates = np.unique(shifted)
        if candidates.size == 0:
            return []
        zeros = np.flatnonzero(shifted == 0.0)
        if zeros.size:  # np.unique may keep either zero
            candidates[np.searchsorted(candidates, 0.0)] = shifted[zeros[0]]
        lags = np.concatenate(
            (candidates, candidates - tau, candidates - 2 * tau)
        )
        found = sum(
            np.searchsorted(arr, lags, side="right") for arr in lists
        )
        size = candidates.size
        values = found[:size] - 2 * found[size : 2 * size] + found[2 * size :]
        hot = values >= theta
        edges = np.flatnonzero(hot[1:] != hot[:-1]) + 1
        if hot[0]:
            edges = np.concatenate(([0], edges))
        points = candidates[edges].tolist()
        intervals = list(zip(points[::2], points[1::2]))
        if len(points) % 2:
            intervals.append((points[-1], end))
        return intervals

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """Exact bursty event query over all seen events.

        Per stacked table, ``b`` of every event is two ``bincount``
        calls over the log windows ``(t - tau, t]`` and ``(t - 2 tau,
        t - tau]``, found by three ``searchsorted`` calls.  The tables'
        values sum by event id, in first-seen order across the stack;
        hits (``b >= theta``, so every seen event when ``theta <= 0``)
        are ordered by falling ``b``, ties in first-seen order.
        """
        require_tau(tau)
        require_finite_time(t)
        lags = np.array([t - 2 * tau, t - tau, t])
        ids, values = [], []
        for table, bound in zip(self._tables, self._bounds):
            if not table:  # a view's empty own table
                continue
            log = _log_of(table)
            if bound is None:
                n, n_keys = log.n, len(log.keys)  # n first: see _RecordLog
            else:
                n, n_keys = bound.n_records, bound.n_keys
            values.append(log.window_values(n, n_keys, lags))
            ids.append(log.key_array(n_keys))
        if not ids:
            return []
        seen, first, inverse = np.unique(
            np.concatenate(ids), return_index=True, return_inverse=True
        )
        value = np.bincount(
            inverse, weights=np.concatenate(values), minlength=seen.size
        )
        order = np.argsort(first)  # first-seen order across the stack
        seen, value = seen[order], value[order]
        hot = np.flatnonzero(value >= theta)
        hot = hot[np.argsort(-value[hot], kind="stable")]
        return [
            BurstyEvent(event_id, float(b))
            for event_id, b in zip(seen[hot].tolist(), value[hot].tolist())
        ]

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total mentions stored."""
        return self._count

    def timestamps_of(self, event_id: int) -> Sequence[float]:
        """The raw, sorted occurrence timestamps of one event."""
        if len(self._tables) == 1:  # the own table only (the seal path)
            return self._timestamps.get(int(event_id), [])
        lists = self._lists_of(int(event_id))
        if len(lists) == 1:
            return _visible(*lists[0])
        return sorted(chain.from_iterable(_visible(*run) for run in lists))

    def timestamps_between(
        self, event_id: int, lo: float, hi: float
    ) -> list[float]:
        """The event's occurrences with ``lo <= t <= hi`` (unordered
        across stacked tables)."""
        out: list[float] = []
        for times, n in self._lists_of(int(event_id)):
            start = bisect.bisect_left(times, lo, 0, n)
            out.extend(times[start : bisect.bisect_right(times, hi, start, n)])
        return out

    def size_in_bytes(self) -> int:
        """Eight bytes per stored timestamp."""
        return 8 * self._count

