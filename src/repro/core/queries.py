"""Query layer: the three historical burst queries over any backend.

This module provides

* :func:`bursty_time_intervals` and :func:`max_burstiness` — the bursty
  time and peak queries over an approximate curve (paper §V).  The
  burstiness of a staircase or PLA approximation can only change at its
  knots and their ``tau`` / ``2 tau`` shifts, so point queries at those
  breakpoints suffice.  Both run as one array program: the sorted
  breakpoint array is built with numpy, ``F~`` is read once for every
  sample through the curve's ``value_many(ts)``, and the threshold walk,
  crossing interpolation and peak argmax run over the result arrays.
  A curve therefore only has to answer ``value_many`` (PBE-1, PBE-2,
  :class:`~repro.streams.frequency.StaircaseCurve` and every store's
  :meth:`~repro.core.store._StoreBase.curve` view do),
* :class:`HistoricalBurstAnalyzer` — the user-facing facade that unifies
  the exact baseline and the CM-PBE-1 / CM-PBE-2 sketches behind the three
  query types of §II-A.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.dyadic import BurstyEvent
from repro.core.errors import (
    InvalidParameterError,
    require_tau,
    require_time_range,
)
from repro.streams.frequency import CumulativeCurve

__all__ = [
    "bursty_time_intervals",
    "max_burstiness",
    "HistoricalBurstAnalyzer",
]


def _burstiness_at(
    curve: CumulativeCurve, ts: np.ndarray, tau: float
) -> np.ndarray:
    """``b~(t) = F~(t) - 2 F~(t - tau) + F~(t - 2 tau)`` at every time in
    ``ts``, from a single ``value_many`` read of the three shifts."""
    n = ts.size
    values = curve.value_many(np.concatenate((ts, ts - tau, ts - 2 * tau)))
    return values[:n] - 2.0 * values[n : 2 * n] + values[2 * n :]


def _shifted_knots(
    knots: Sequence[float] | np.ndarray, tau: float
) -> np.ndarray:
    """Every knot plus its ``tau`` and ``2 tau`` shifts (unsorted)."""
    array = np.asarray(knots, dtype=np.float64)
    return np.concatenate((array, array + tau, array + 2 * tau))


def max_burstiness(
    curve: CumulativeCurve,
    knots: Sequence[float] | np.ndarray,
    tau: float,
    t_start: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
) -> tuple[float, float]:
    """The time and value of the largest estimated burstiness in a range.

    Answers the paper's motivating question "what was THE bursty moment
    of week w?" — over an approximation, ``b~`` changes only at the knot
    times and their ``tau`` shifts (piecewise constant for staircases,
    piecewise linear for PLAs, where the maximum of each piece sits at an
    endpoint), so evaluating at breakpoints inside the range suffices.
    Ties go to the earliest time.

    Returns ``(t_star, b_star)``; raises if the range is empty.
    """
    require_tau(tau)
    require_time_range(t_start, t_end)
    shifted = _shifted_knots(knots, tau)
    if piecewise == "linear":
        # Sample one ulp before each breakpoint too: pieces may jump.
        shifted = np.concatenate((shifted, np.nextafter(shifted, -np.inf)))
    inside = shifted[(t_start <= shifted) & (shifted <= t_end)]
    candidates = np.unique(np.concatenate(([t_start, t_end], inside)))
    values = _burstiness_at(curve, candidates, tau)
    best = int(np.argmax(values))
    return float(candidates[best]), float(values[best])


def bursty_time_intervals(
    curve: CumulativeCurve,
    knots: Sequence[float] | np.ndarray,
    theta: float,
    tau: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """Maximal intervals of ``[min knot, t_end]`` where ``b~(t) >= theta``.

    Parameters
    ----------
    curve:
        Any cumulative-curve estimator with ``value_many``.
    knots:
        Times where the curve's behaviour can change (corner times for
        staircases, segment boundaries for PLAs).  Breakpoints of the
        burstiness function are the knots plus their ``tau`` and ``2 tau``
        shifts.
    piecewise:
        ``"constant"`` for staircase curves (burstiness is a step
        function, evaluated once per breakpoint) or ``"linear"`` for PLA
        curves (burstiness is piecewise linear; threshold crossings are
        interpolated inside each piece).
    merge_gap:
        Coalesce reported intervals separated by less than this (useful
        to suppress sliver gaps where the estimate briefly dips below
        ``theta`` at a breakpoint).
    """
    require_tau(tau)
    if piecewise not in ("constant", "linear"):
        raise InvalidParameterError(
            f"piecewise must be 'constant' or 'linear', got {piecewise!r}"
        )
    breakpoints = np.unique(_shifted_knots(knots, tau))
    breakpoints = breakpoints[breakpoints <= t_end]
    if breakpoints.size == 0:
        return []
    if breakpoints[-1] < t_end:
        breakpoints = np.append(breakpoints, t_end)
    if piecewise == "constant":
        starts, ends = _constant_intervals(
            curve, breakpoints, theta, tau, t_end
        )
    else:
        starts, ends = _linear_intervals(curve, breakpoints, theta, tau)
    return _merge_intervals(starts, ends, merge_gap)


def _constant_intervals(
    curve: CumulativeCurve,
    breakpoints: np.ndarray,
    theta: float,
    tau: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """A step function: every run of breakpoints at or above ``theta``
    opens at its first breakpoint and closes at the next one (or at
    ``t_end``)."""
    above = _burstiness_at(curve, breakpoints, tau) >= theta
    edges = np.diff(above.astype(np.int8), prepend=0, append=0)
    closes = np.append(breakpoints, t_end)
    return (
        breakpoints[np.flatnonzero(edges == 1)],
        closes[np.flatnonzero(edges == -1)],
    )


def _linear_intervals(
    curve: CumulativeCurve,
    breakpoints: np.ndarray,
    theta: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """A piecewise-linear function: sample one ulp inside both ends of
    every piece (it may jump at the breakpoints themselves) and
    interpolate where a piece crosses ``theta``."""
    left, right = breakpoints[:-1], breakpoints[1:]
    n = left.size
    samples = _burstiness_at(
        curve,
        np.concatenate(
            (np.nextafter(left, right), np.nextafter(right, left))
        ),
        tau,
    )
    b_lo, b_hi = samples[:n], samples[n:]
    lo_in, hi_in = b_lo >= theta, b_hi >= theta
    starts, ends = left.copy(), right.copy()
    # A piece with exactly one end at or above theta crosses it once.
    cross = np.flatnonzero(lo_in != hi_in)
    fraction = (theta - b_lo[cross]) / (b_hi[cross] - b_lo[cross])
    crossing = left[cross] + np.minimum(
        np.maximum(fraction, 0.0), 1.0
    ) * (right[cross] - left[cross])
    rising = ~lo_in[cross]
    starts[cross[rising]] = crossing[rising]
    ends[cross[~rising]] = crossing[~rising]
    keep = lo_in | hi_in
    return starts[keep], ends[keep]


def _merge_intervals(
    starts: np.ndarray,
    ends: np.ndarray,
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    """Sort, drop empty intervals and coalesce the rest: an interval
    joins the previous group when it starts within ``merge_gap`` of the
    farthest end seen so far."""
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return []
    reach = np.maximum.accumulate(ends)
    first = np.flatnonzero(
        np.concatenate(([True], starts[1:] > reach[:-1] + merge_gap))
    )
    return list(
        zip(
            starts[first].tolist(),
            np.maximum.reduceat(ends, first).tolist(),
        )
    )


class HistoricalBurstAnalyzer:
    """User-facing facade over the three historical burst queries.

    A thin veneer over the pluggable store layer
    (:mod:`repro.core.store`): the ``method`` string picks a registered
    backend and every query delegates to it, so the facade carries no
    backend-specific branching.  Pass ``store=`` to wrap any
    already-built :class:`~repro.core.store.BurstStore` (a sharded
    composite, a custom registered backend, a store loaded with
    :func:`~repro.core.serialize.load_store`) behind the same surface.

    Parameters
    ----------
    method:
        ``"exact"`` (the §II-B baseline), ``"cm-pbe-1"`` or ``"cm-pbe-2"``.
    universe_size:
        Size ``K`` of the event-id space.  Required for the sketch methods
        (the dyadic bursty-event index is built over it).
    eta, buffer_size:
        PBE-1 knobs (used by ``cm-pbe-1``).
    gamma, unit:
        PBE-2 knobs (used by ``cm-pbe-2``).
    width, depth:
        CM-PBE grid dimensions.
    with_index:
        Build the dyadic index for fast bursty event queries (doubles as
        the leaf-level point-query sketch).  When ``False`` a single
        leaf-level CM-PBE is kept and bursty event queries scan all ids.
    store:
        An existing :class:`~repro.core.store.BurstStore` to wrap; every
        other parameter is ignored when given.
    """

    _METHODS = ("exact", "cm-pbe-1", "cm-pbe-2")

    def __init__(
        self,
        method: str = "cm-pbe-1",
        universe_size: int | None = None,
        eta: int = 100,
        buffer_size: int = 1500,
        gamma: float = 20.0,
        unit: float = 1.0,
        width: int = 6,
        depth: int = 3,
        combiner: str = "median",
        with_index: bool = True,
        seed: int = 0,
        store=None,
    ) -> None:
        from repro.core.store import create_store

        if store is not None:
            self._store = store
            self.method = getattr(store, "backend_key", "custom")
            self.universe_size = getattr(
                store, "universe_size", universe_size
            )
            return
        if method not in self._METHODS:
            raise InvalidParameterError(
                f"method must be one of {self._METHODS}, got {method!r}"
            )
        self.method = method
        self.universe_size = universe_size
        if method == "exact":
            self._store = create_store("exact")
            return
        if universe_size is None:
            raise InvalidParameterError(
                "universe_size is required for sketch methods"
            )
        cell = "pbe1" if method == "cm-pbe-1" else "pbe2"
        cell_cfg = dict(
            cell=cell,
            eta=eta,
            buffer_size=buffer_size,
            gamma=gamma,
            unit=unit,
            width=width,
            depth=depth,
            combiner=combiner,
            seed=seed,
        )
        if with_index:
            self._store = create_store(
                "index", universe_size=universe_size, **cell_cfg
            )
        else:
            del cell_cfg["cell"]
            self._store = create_store(
                method, universe_size=universe_size, **cell_cfg
            )

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The underlying :class:`~repro.core.store.BurstStore`."""
        return self._store

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, event_id: int, timestamp: float, count: int = 1) -> None:
        """Ingest one stream element."""
        self._store.update(event_id, timestamp, count)

    def ingest(self, stream: Iterable[tuple[int, float]]) -> None:
        """Ingest a whole timestamp-ordered stream."""
        self._store.extend(stream)

    def extend_batch(self, event_ids, timestamps, counts=None) -> None:
        """Vectorized ingest of a columnar record batch."""
        self._store.extend_batch(event_ids, timestamps, counts)

    # ------------------------------------------------------------------
    # The three queries (§II-A)
    # ------------------------------------------------------------------
    def point_query(self, event_id: int, t: float, tau: float) -> float:
        """POINT QUERY ``q(e, t, tau)`` → ``b_e(t)``."""
        return self._store.point_query(event_id, t, tau)

    def point_query_batch(self, event_ids, ts, tau: float):
        """Batched POINT QUERY: one ``b_e(t)`` per ``(e, t)`` pair."""
        return self._store.point_query_batch(event_ids, ts, tau)

    def bursty_times(
        self,
        event_id: int,
        theta: float,
        tau: float,
        t_end: float | None = None,
        merge_gap: float = 0.0,
    ) -> list[tuple[float, float]]:
        """BURSTY TIME QUERY ``q(e, theta, tau)`` → intervals with
        ``b_e(t) >= theta``."""
        return self._store.bursty_time_query(
            event_id, theta, tau, t_end=t_end, merge_gap=merge_gap
        )

    def bursty_events(
        self, t: float, theta: float, tau: float
    ) -> list[BurstyEvent]:
        """BURSTY EVENT QUERY ``q(t, theta, tau)`` → events with
        ``b_e(t) >= theta``."""
        return self._store.bursty_event_query(t, theta, tau)

    def peak_burstiness(
        self,
        event_id: int,
        t_start: float,
        t_end: float,
        tau: float,
    ) -> tuple[float, float]:
        """``(t_star, b_star)``: the event's burstiest moment in a range."""
        return self._store.peak_query(event_id, t_start, t_end, tau)

    # ------------------------------------------------------------------
    def cumulative_frequency(self, event_id: int, t: float) -> float:
        """Estimated (or exact) ``F_e(t)``."""
        return self._store.cumulative_frequency(event_id, t)

    def finalize(self) -> None:
        """Flush sketch buffers (no-op for the exact baseline)."""
        self._store.finalize()

    def size_in_bytes(self) -> int:
        """Storage footprint of the chosen backend."""
        return self._store.size_in_bytes()

    def metrics_snapshot(self) -> dict:
        """Operational metrics: the process-wide registry, plus the
        store's own registry under ``"store"``."""
        from repro.core.metrics import global_registry

        return {
            "global": global_registry().snapshot(),
            "store": self._store.metrics_snapshot(),
        }
