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
the event's index in the table's first-seen key order, plus an
``int64`` count per code (the length of that event's list).  A store
that ingests appends to its log (the stream arrives in time order) and
adds each batch's per-event sizes to the counts; a columnar table
derives its log from its runs on its first bursty-event query — one
stable argsort of the concatenated times, with each run's code repeated
over it — and keeps it.

A stacked table may also be *bounded*: a :meth:`snapshot
<ExactBurstStore.snapshot>` shares the source's own (append-only) lists
and log and records the log's length, its key count and a copy of its
per-code counts at snapshot time, so it reads only the prefix that can
never change.  Taking one copies O(events) integers in one block and
never walks the table.  Every reader honours the bound: an event's
length is its count if its code is below the key count and 0 otherwise,
bisects stop at that length, whole-list readers slice ``[:n]`` and
iterate the bound's keys, never the live table, and log readers stop at
the bound's record count.

Every stacked table has a *span* ``(first, last)``, the times of the
earliest and latest record it shows.  A columnar table computes it once,
from its runs' ends, when :meth:`~ExactBurstStore.from_columns` builds
it; a bounded table's comes from its log prefix (``ts[0]`` and
``ts[n_records - 1]``) when :meth:`~ExactBurstStore.snapshot` bounds it;
a store's own, writable table reads its live log; a table without
records has none and is never read.  Readers skip a table whose span
cannot change their answer, with no approximation, since every count is
an integer:

* ``b_e(t)`` gets exactly 0 from a table with ``last <= t - 2 tau``
  (all three bisects return the run's length ``n``: ``n - 2n + n``) or
  with ``first > t`` (all three return 0);
* ``F_e`` over query times in ``[lo, hi]`` gets the whole run length,
  without a search, from a table with ``last <= lo``, and 0 from one
  with ``first > hi``;
* the occurrences in ``[lo, hi]`` (a peak query's knots) get nothing
  from a table with ``last < lo`` or ``first > hi``.

So a query near ``t`` reads the one or two time-ordered parts its
window ``(t - 2 tau, t]`` meets, whatever the number of parts stacked;
only a bursty-time query, which walks one event's whole history, reads
every table.  A bursty-event query derives no log for a table its
window misses; its hits still rank ties in first-seen order across the
whole stack.
"""

from __future__ import annotations

import bisect
import math
import mmap
import threading
from collections import defaultdict
from itertools import chain
from operator import itemgetter
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

# Mapped columns that are filled in full are populated when mapped, not
# faulted in one page at a time as they are written (0 where the
# platform has no MAP_POPULATE).
_POPULATE = getattr(mmap, "MAP_POPULATE", 0)

# Spans ``(first, last)``: one every reader visits (a table filled
# without a log), and one none visits (a table without records).
_ALWAYS = (-math.inf, math.inf)
_NEVER = (math.inf, -math.inf)


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


def _column(size: int, dtype, *, populate: bool = True) -> np.ndarray:
    """An uninitialised 1-d array for a log or merge column; a mapped one
    is prefaulted unless the caller leaves part of it unwritten
    (``populate=False``)."""
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    if nbytes <= _MAPPED_COLUMN_BYTES:
        return np.empty(size, dtype=dtype)
    if populate and _POPULATE:
        mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_SHARED | _POPULATE)
    else:
        mapping = mmap.mmap(-1, nbytes)
    return np.frombuffer(mapping, dtype=dtype)


class _RecordLog:
    """One table's records in time order: ``ts`` (float64) and ``codes``
    (int32), where a code indexes ``keys``, the table's event ids in
    first-seen order, and ``lengths`` (int64), the record count of each
    code, which is the length of that event's list.

    Only ``[0, n)`` holds records, and only ``lengths[:len(keys)]``
    counts.  Writers append past ``n`` and grow a full buffer by copying
    it into a larger one before publishing it, so a reader that took
    ``n`` earlier finds that prefix intact in whichever buffer it reads.
    """

    __slots__ = (
        "ts", "codes", "n", "keys", "code_of", "lengths", "_key_array"
    )

    def __init__(
        self,
        ts: np.ndarray,
        codes: np.ndarray,
        keys: list[int],
        lengths: np.ndarray,
    ):
        self.ts = ts
        self.codes = codes
        self.n = ts.size
        self.keys = keys
        self.code_of = {event_id: code for code, event_id in enumerate(keys)}
        self.lengths = lengths
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
        return cls(ts, codes, list(table), lengths)

    def code(self, event_id: int) -> int:
        """The event's code, assigning the next one (count 0) on first
        sight."""
        code = self.code_of.get(event_id)
        if code is None:
            code = len(self.keys)
            if code == self.lengths.size:
                lengths = np.zeros(max(2 * code, 64), dtype=np.int64)
                lengths[:code] = self.lengths
                self.lengths = lengths  # copy first, then publish
            self.code_of[event_id] = code
            self.keys.append(event_id)
        return code

    def _grow(self, size: int) -> None:
        # By a quarter, not by doubling, to bound the unused tail.
        size = max(size, self.ts.size + self.ts.size // 4, 256)
        n = self.n
        ts = _column(size, np.float64, populate=False)
        ts[:n] = self.ts[:n]
        codes = _column(size, np.int32, populate=False)
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

    @property
    def span(self) -> tuple[float, float]:
        """The times of the first and last record now in the table, read
        from its live log (writers only append, in time order); a table
        holding records but no log is never skipped."""
        log = self.log
        n = 0 if log is None else log.n
        if n == 0:
            return _ALWAYS if self else _NEVER
        return float(log.ts[0]), float(log.ts[n - 1])


class _Columns(dict):
    """An immutable part's table: per-event sorted runs as read-only
    ``float64`` memoryviews, plus the record log (``None`` until first
    derived or handed over), its span, computed once from the runs'
    ends, and an id → key-position index (``None`` until first used)."""

    __slots__ = ("log", "span", "index")

    def __init__(self, runs: dict[int, memoryview]) -> None:
        super().__init__(runs)
        self.log = None
        self.index = None
        try:
            self.span = (
                min(map(itemgetter(0), self.values())),
                max(map(itemgetter(-1), self.values())),
            )
        except IndexError:  # an empty run: read the others' ends
            runs = [run for run in self.values() if len(run)]
            self.span = (
                (min(run[0] for run in runs), max(run[-1] for run in runs))
                if runs
                else _NEVER
            )

    def key_index(self) -> dict[int, int]:
        """Each event id's position in the table's key order."""
        index = self.index
        if index is None:
            index = self.index = {
                event_id: position for position, event_id in enumerate(self)
            }
        return index


def _interleaved(runs: list) -> bool:
    """Whether sorted ``runs``, concatenated in order, are out of time
    order: some non-empty run starts before an earlier one ends."""
    runs = [run for run in runs if len(run)]
    return any(
        later[0] < earlier[-1] for earlier, later in zip(runs, runs[1:])
    )


class _Bound:
    """A shared table's bound, taken from its record log at snapshot
    time: the log's record and key counts, a copy of its per-code record
    counts and the span of its record prefix.  The log's ``keys`` and
    ``code_of`` are shared (writers only add keys past ``n_keys``).

    It reads like a dict of the list lengths it shows: :meth:`get` is an
    event's length (0 for an event first seen later), :meth:`items`
    yields ``(event_id, length)`` of every event it shows in first-seen
    order, and it is true when it shows a record.
    """

    __slots__ = ("keys", "code_of", "lengths", "n_records", "n_keys", "span")

    def __init__(self, log: _RecordLog) -> None:
        n, n_keys = log.n, len(log.keys)
        self.keys, self.code_of = log.keys, log.code_of
        self.n_records, self.n_keys = n, n_keys
        self.lengths = log.lengths[:n_keys].copy()
        self.span = (float(log.ts[0]), float(log.ts[n - 1])) if n else _NEVER

    def __bool__(self) -> bool:
        return self.n_records > 0

    def get(self, event_id: int) -> int:
        code = self.code_of.get(event_id)
        if code is None or code >= self.n_keys:
            return 0
        return int(self.lengths[code])

    def items(self) -> Iterator[tuple[int, int]]:
        for n, event_id in zip(self.lengths.tolist(), self.keys):
            if n:
                yield event_id, n

    def __iter__(self) -> Iterator[int]:
        return (event_id for event_id, _ in self.items())


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


def _run(table, bound: _Bound | None, event_id: int):
    """The event's sorted run in one stacked table and the length to read
    (``None``: all of it); the run is empty or ``None`` if the table
    shows no record of the event."""
    if bound is None:
        return table.get(event_id), None
    n = bound.get(event_id)
    return (table[event_id] if n else None), n


def _key_index(table, bound: _Bound | None) -> tuple[dict[int, int], int]:
    """A table's id → first-seen position map and the number of keys it
    shows (a bound's key count at snapshot time)."""
    log = table.log
    if log is not None:
        return log.code_of, len(log.keys) if bound is None else bound.n_keys
    if isinstance(table, _Columns):
        return table.key_index(), len(table)
    return {event_id: i for i, event_id in enumerate(table)}, len(table)


def _key_array(table, bound: _Bound | None) -> np.ndarray:
    """The ids a table shows, in first-seen order, as int64."""
    log = table.log
    if log is None:
        return np.fromiter(table, np.int64, len(table))
    return log.key_array(len(log.keys) if bound is None else bound.n_keys)


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
        """An independent, writable copy that never walks the own table.

        The copy shares every stacked table and bounds this store's own
        table by its record log (see :class:`_Bound`): one copy of the
        per-code counts, no per-event work.  Writers only append, so the
        bounded prefixes never change and later writes to either store
        stay invisible to the other.
        """
        copy = ExactBurstStore()
        own = _Bound(_log_of(self._timestamps))
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

    def _adopt_log(self, source: "ExactBurstStore") -> None:
        """Take over the record log of ``source``, the one-table store
        this decoded part was saved from, so the part never derives one.

        The source's log holds the same records in stream order; its
        codes are remapped from first-seen order to this part's key
        order (one ``np.take`` over a permutation).  Equal times may
        then sit in another order than in a derived log, which no query
        can tell: window edges never split a run of equal times.  Does
        nothing unless this part is a fresh, log-less columnar table
        holding exactly the source's records.
        """
        log = source._timestamps.log
        if (
            len(source._tables) != 1
            or log is None
            or len(self._tables) != 2
            or self._timestamps
            or not isinstance(table := self._tables[0], _Columns)
            or table.log is not None
            or log.n != self._count
            or len(log.keys) != len(table)
        ):
            return
        n, n_keys = log.n, len(log.keys)
        adopted = _RecordLog(
            log.ts[:n],
            _column(n, np.int32),
            list(table),
            np.empty(n_keys, dtype=np.int64),
        )
        position = adopted.code_of
        permutation = np.fromiter(
            (position[event_id] for event_id in log.keys), np.int32, n_keys
        )
        np.take(permutation, log.codes[:n], out=adopted.codes)
        adopted.lengths[permutation] = log.lengths[:n_keys]
        table.log = adopted  # filled first, then published

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
        log.lengths[code] += count
        self._count += count

    def _append_batch(
        self, ids: np.ndarray, ts: np.ndarray, counts: np.ndarray | None
    ) -> None:
        """Append a validated, non-decreasing record batch (``ids``
        int64): each event's list grows by one slice of the batch sorted
        by event, the log by the batch in stream order, and each event's
        count in the log by its slice's length."""
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
            group_codes = [
                log.code(event_id) if code is None else code
                for event_id, code in zip(event_ids, group_codes)
            ]
        group_codes = np.asarray(group_codes, dtype=np.intp)
        sizes = np.diff(edges)
        codes = np.empty(ids.size, dtype=np.int32)
        codes[order] = np.repeat(group_codes, sizes)
        grouped_ts = ts[order]
        if counts is not None:
            grouped_ts = np.repeat(grouped_ts, counts[order])
            edges = np.concatenate(([0], np.cumsum(counts[order])))[edges]
            sizes = np.diff(edges)
            ts, codes = np.repeat(ts, counts), np.repeat(codes, counts)
        times = grouped_ts.tolist()
        bounds = edges.tolist()
        table = self._timestamps
        for event_id, start, stop in zip(event_ids, bounds, bounds[1:]):
            table[event_id].extend(times[start:stop])
        log.extend(ts, codes)
        log.lengths[group_codes] += sizes  # one code per group
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
            and (n := None if bound is None else bound.get(event_id)) != 0
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

    def _spanned(self) -> list[tuple]:
        """``(table, bound, first, last)`` for every stacked table, with
        the span its bound recorded or the table holds (see the module
        docstring): the input of every skip test."""
        return [
            (table, bound, *(table.span if bound is None else bound.span))
            for table, bound in zip(self._tables, self._bounds)
        ]

    def cumulative_frequency(self, event_id: int, t: float) -> int:
        """Exact ``F_e(t)``: a table whose records all lie at or before
        ``t`` counts its run's length, one past ``t`` is skipped."""
        require_finite_time(t)
        event_id = int(event_id)
        total = 0
        for table, bound, first, last in self._spanned():
            if first > t:
                continue
            times, n = _run(table, bound, event_id)
            if not times:
                continue
            if last <= t:
                total += len(times) if n is None else n
            else:
                total += bisect.bisect_right(times, t, 0, n)
        return total

    def cumulative_frequency_many(self, event_id: int, ts) -> np.ndarray:
        """Vectorized :meth:`cumulative_frequency` over query times.

        Each stacked list is bisected to the queried window
        ``(min ts, max ts]``; only that slice is searched, so the cost
        does not grow with the event's history outside the window.  A
        table whose span ends by ``min ts`` counts its whole run; one
        starting after ``max ts`` is skipped.
        """
        ts = require_finite_time(np.asarray(ts, dtype=np.float64))
        counts = np.zeros(ts.shape, dtype=np.int64)
        if ts.size == 0:
            return counts.astype(np.float64)
        lo, hi = float(ts.min()), float(ts.max())
        event_id = int(event_id)
        for table, bound, first, last in self._spanned():
            if first > hi:
                continue
            times, n = _run(table, bound, event_id)
            if not times:
                continue
            if last <= lo:
                counts += len(times) if n is None else n
            else:
                counts += _window_counts(times, n, lo, hi, ts)
        return counts.astype(np.float64)

    def burstiness(self, event_id: int, t: float, tau: float) -> int:
        """Exact ``b_e(t)``, over the tables whose span meets
        ``(t - 2 tau, t]`` (every other one adds exactly 0)."""
        require_tau(tau)
        require_finite_time(t)
        event_id = int(event_id)
        early = t - 2 * tau  # as _burstiness_in computes it
        total = 0
        for table, bound, first, last in self._spanned():
            if last <= early or first > t:
                continue
            times, n = _run(table, bound, event_id)
            if times:
                total += _burstiness_in(times, n, t, tau)
        return total

    def burstiness_many(self, event_ids, ts, tau: float) -> np.ndarray:
        """Vectorized :meth:`burstiness` over ``(event_id, t)`` pairs.

        One stable argsort groups the pairs by event.  Pairs of groups of
        at most ``_SMALL_GROUP`` pairs are read table by table: one mask
        picks the pairs whose window ``(t - 2 tau, t]`` meets the
        table's span, and only those run three bisects on their event's
        list.  A larger group converts only the window ``(min t - 2 tau,
        max t]`` of each list whose span meets it and searches it once
        per lag.  Counts are exact integers, so the float64 result is
        bit-identical to the scalar path either way.
        """
        require_tau(tau)
        ids, times = _validated_query_batch(event_ids, ts)
        counts = np.zeros(ids.size, dtype=np.int64)
        if ids.size == 0:
            return counts.astype(np.float64)
        order, grouped, edges = _runs(ids)
        sizes = np.diff(edges)
        spanned = self._spanned()
        rows = order[np.repeat(sizes <= _SMALL_GROUP, sizes)]
        if rows.size:
            queried = times[rows]
            early = queried - 2 * tau  # as _burstiness_in computes it
            for table, bound, first, last in spanned:
                meets = np.flatnonzero((first <= queried) & (early < last))
                if meets.size == 0:
                    continue
                values = []
                for event_id, t in zip(
                    ids[rows[meets]].tolist(), queried[meets].tolist()
                ):
                    stored, n = _run(table, bound, event_id)
                    values.append(
                        _burstiness_in(stored, n, t, tau) if stored else 0
                    )
                counts[rows[meets]] += values
        bounds = edges.tolist()
        for start, stop in zip(bounds, bounds[1:]):
            if stop - start <= _SMALL_GROUP:
                continue
            event_id = int(grouped[start])
            rows = order[start:stop]
            queried = times[rows]
            lags = np.concatenate(
                (queried, queried - tau, queried - 2 * tau)
            )
            lo, hi = float(lags.min()), float(queried.max())
            found = np.zeros(lags.size, dtype=np.int64)
            for table, bound, first, last in spanned:
                if last <= lo or first > hi:
                    continue
                stored, n = _run(table, bound, event_id)
                if stored:
                    found += _window_counts(stored, n, lo, hi, lags)
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
        one ``searchsorted`` over all three lags in the event's runs,
        concatenated once into a fresh array (sorted only if the runs
        interleave); an interval still open at the last breakpoint
        closes at ``end`` (``(end, end)`` when it opens there).
        """
        require_tau(tau)
        if t_end is not None:
            require_finite_time(t_end)
        runs = [_visible(times, n) for times, n in self._lists_of(int(event_id))]
        if not runs:
            return []
        end = (
            t_end
            if t_end is not None
            else max(float(run[-1]) for run in runs) + 2 * tau
        )
        stored = np.concatenate(
            [np.asarray(run, dtype=np.float64) for run in runs]
        )
        # Record-major (t, t + tau, t + 2 tau) order in stack order: of
        # two equal breakpoints 0.0 and -0.0, the first one is kept.
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
        if _interleaved(runs):
            stored = np.sort(stored)
        found = np.searchsorted(stored, lags, side="right")
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

        Per stacked table whose span meets ``(t - 2 tau, t]``, ``b`` of
        every event is two ``bincount`` calls over the log windows
        ``(t - tau, t]`` and ``(t - 2 tau, t - tau]``, found by three
        ``searchsorted`` calls; a table the window misses is not read
        (nor its log derived).  The tables' values sum by event id.
        Hits (``b >= theta``, so every seen event when ``theta <= 0``)
        are ordered by falling ``b``, ties in first-seen order across
        the whole stack: with ``theta <= 0`` the missed tables' ids join
        with value 0, otherwise only the hits are ranked, by the first
        table holding each and its position there.
        """
        require_tau(tau)
        require_finite_time(t)
        early = t - 2 * tau
        lags = np.array([early, t - tau, t])
        every = theta <= 0
        ids, values, missed = [], [], False
        for table, bound, first, last in self._spanned():
            if not (table if bound is None else bound):
                continue
            if last <= early or first > t:
                missed = True
                if every:
                    keys = _key_array(table, bound)
                    ids.append(keys)
                    values.append(np.zeros(keys.size, dtype=np.int64))
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
        if len(ids) == 1:  # one table's keys are unique, in first-seen order
            seen, value = ids[0], values[0]
        else:
            seen, first_at, inverse = np.unique(
                np.concatenate(ids), return_index=True, return_inverse=True
            )
            value = np.bincount(
                inverse, weights=np.concatenate(values), minlength=seen.size
            )
            order = np.argsort(first_at)  # first-seen order among them
            seen, value = seen[order], value[order]
        hot = np.flatnonzero(value >= theta)
        if missed and not every and hot.size > 1:
            rank = self._first_seen(seen[hot].tolist())
            hot = hot[sorted(range(hot.size), key=rank.__getitem__)]
        hot = hot[np.argsort(-value[hot], kind="stable")]
        return [
            BurstyEvent(event_id, float(b))
            for event_id, b in zip(seen[hot].tolist(), value[hot].tolist())
        ]

    def _first_seen(self, event_ids: list[int]) -> list[tuple[int, int]]:
        """Each id's first-seen rank across the whole stack: the index of
        the first table showing it and its key position there."""
        rank: dict[int, tuple[int, int]] = {}
        for i, (table, bound) in enumerate(zip(self._tables, self._bounds)):
            index, n_keys = _key_index(table, bound)
            for event_id in event_ids:
                if event_id not in rank:
                    position = index.get(event_id)
                    if position is not None and position < n_keys:
                        rank[event_id] = (i, position)
            if len(rank) == len(event_ids):
                break
        return [rank[event_id] for event_id in event_ids]

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
        across stacked tables), from the tables whose span meets
        ``[lo, hi]``."""
        event_id = int(event_id)
        out: list[float] = []
        for table, bound, first, last in self._spanned():
            if last < lo or first > hi:
                continue
            times, n = _run(table, bound, event_id)
            if times:
                start = bisect.bisect_left(times, lo, 0, n)
                stop = bisect.bisect_right(times, hi, start, n)
                out.extend(times[start:stop])
        return out

    def size_in_bytes(self) -> int:
        """Eight bytes per stored timestamp."""
        return 8 * self._count

