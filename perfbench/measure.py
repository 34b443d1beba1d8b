"""Timing at a reference machine speed, percentiles, and benchmark spans.

The CPU speed of a small shared VM drifts by 10-20% over seconds, so a
raw reading in seconds does not repeat from run to run.  Every timing
here is therefore taken next to readings of a fixed probe workload and
reported at the reference speed::

    normalised = raw * PROBE_REF_S / local_probe

where ``local_probe`` is the median of the probe readings taken closest
in time to the measured call.  The probe shares no state with the
program under test.

The core probe is small and stays in the core's private caches.  Code
that walks megabytes of Python objects slows by more than it when the
machine is contended, so a workload whose calls do that can add a
second probe part, a per-event list merge, and scale those calls by it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Probe time at the reference machine speed (seconds).  A constant of
#: the benchmark: changing it rescales every reported timing.
PROBE_REF_S = 0.00132

#: Time of the list-merge probe part at the reference machine speed
#: (seconds): ``PROBE_REF_S`` times the list part's usual ratio to the
#: core probe (5.2 with the garbage collector off).
LIST_PROBE_REF_S = 0.0069

#: Size of the list-merge probe part: floats spread over per-event lists.
LIST_PROBE_EVENTS = 1024
LIST_PROBE_FLOATS = 300_000

#: How many probe readings nearest in time set a call's speed factor.
NEAREST_PROBES = 7

_PROBE_SEED = 20190408


class Probe:
    """A fixed pure-Python loop plus a small numpy kernel, timed.

    The Python half sorts floats, builds a dict from them and merges two
    float lists by extend-and-sort (interpreter, allocation and memory
    bound, like the stores' list and dict work); the numpy half sorts
    and searches a small array (like the PBE kernels).

    With ``lists=True`` every reading also times, separately, the list
    part: two tables of sorted per-event float lists (2:1, 300,000
    floats, about 7 MiB of scattered objects) merged per event by copy,
    extend and sort into a new table, the access pattern of merging two
    exact stores.
    """

    def __init__(self, lists: bool = False) -> None:
        rng = np.random.default_rng(_PROBE_SEED)
        self._floats = rng.random(1500).tolist()
        self._runs = (rng.random(2500).tolist(), rng.random(2500).tolist())
        self._array = rng.random(4096)
        self._tables = _list_tables(rng) if lists else None
        self.mids: list[float] = []
        self.readings: list[float] = []
        self.list_readings: list[float] = []

    def read(self) -> float:
        """Run the probe once, record and return its wall time."""
        start = time.perf_counter()
        ordered = sorted(self._floats)
        rank = {value: index for index, value in enumerate(ordered)}
        total = sum(rank.values())
        merged = list(self._runs[0])
        merged.extend(self._runs[1])
        merged.sort()
        ordered_array = np.sort(self._array)
        hits = np.searchsorted(ordered_array, self._array[:1024])
        total += int(hits[-1])
        core_end = end = time.perf_counter()
        if self._tables is not None:
            older, newer = self._tables
            merged = {}
            for key, times in older.items():
                run = list(times)
                run.extend(newer[key])
                run.sort()
                merged[key] = run
            end = time.perf_counter()
            self.list_readings.append(end - core_end)
        self.mids.append((start + end) / 2)
        self.readings.append(core_end - start)
        return core_end - start

    def factor(self, t: float, part: str = "core") -> float:
        """Reference-speed factor for a call centred at time ``t``, from
        the core probe or (``part="lists"``) from the list part."""
        if part == "lists":
            readings, ref = self.list_readings, LIST_PROBE_REF_S
        else:
            readings, ref = self.readings, PROBE_REF_S
        if not readings:
            raise RuntimeError(f"no {part} probe readings taken")
        index = bisect.bisect_left(self.mids, t)
        lo = max(0, index - NEAREST_PROBES)
        hi = min(len(self.mids), index + NEAREST_PROBES)
        window = sorted(
            range(lo, hi), key=lambda i: abs(self.mids[i] - t)
        )[:NEAREST_PROBES]
        local = statistics.median(readings[i] for i in window)
        return ref / local

    def median_s(self, part: str = "core") -> float:
        return statistics.median(
            self.list_readings if part == "lists" else self.readings
        )


def _list_tables(rng):
    """Two tables event -> sorted float list, 2:1 of LIST_PROBE_FLOATS."""
    keys = rng.integers(0, LIST_PROBE_EVENTS, LIST_PROBE_FLOATS).tolist()
    values = rng.random(LIST_PROBE_FLOATS).tolist()
    older = {key: [] for key in range(LIST_PROBE_EVENTS)}
    newer = {key: [] for key in range(LIST_PROBE_EVENTS)}
    for index, (key, value) in enumerate(zip(keys, values)):
        (newer if index % 3 == 0 else older)[key].append(value)
    for table in (older, newer):
        for times in table.values():
            times.sort()
    return older, newer


class Meter:
    """Raw timed calls grouped by kind, normalised once the run is over.

    Normalising afterwards lets a call use probe readings taken after
    it as well as before.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.calls: dict[str, list[tuple[float, float]]] = {}

    def add(self, kind: str, start: float, end: float) -> None:
        self.calls.setdefault(kind, []).append((start, end))

    def raw(self, kind: str) -> list[float]:
        return [end - start for start, end in self.calls.get(kind, [])]

    def scaled(self, kind: str, part: str = "core") -> list[float]:
        """Seconds of each call at the reference speed, scaled by the
        ``part`` of the probe (``"core"`` or ``"lists"``)."""
        return [
            (end - start) * self.probe.factor((start + end) / 2, part)
            for start, end in self.calls.get(kind, [])
        ]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Spans:
    """Benchmark-side spans around calls into the program (traced runs).

    Calls nest strictly (one thread), so each span adds its duration to
    its parent's child time on exit and self time is duration minus
    child time.  With ``enabled=False`` :meth:`span` only yields.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.totals: dict[str, list[float]] = {}  # name -> [n, total, self]
        self._stack: list[list[float]] = []  # [start, child time]
        self.count = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]
            self.count += 1

    def total(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def cost_per_span(self, samples: int = 2000) -> float:
        """Bookkeeping seconds one span adds, measured on empty spans."""
        scratch = Spans(True)
        start = time.perf_counter()
        for _ in range(samples):
            with scratch.span("empty"):
                pass
        return (time.perf_counter() - start) / samples
