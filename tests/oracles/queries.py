"""Scalar oracles for the breakpoint and bursty-event queries.

These are the one-point-at-a-time loops the array engine in
:mod:`repro.core.queries` and the batched store scans replaced, kept
verbatim as the reference they must match bit for bit.  The one change
from the original loops is the linear-mode nudge: samples "just inside" a
breakpoint move by one ulp (``np.nextafter``), not by ``1e-9``, which is
below the ulp at Unix-epoch magnitudes.

* :func:`bursty_time_intervals` / :func:`max_burstiness` — one
  ``burstiness_from_curve`` (three ``curve.value`` calls) per
  breakpoint,
* :func:`flat_bursty_events` — one scalar ``burstiness`` per id, the
  universe scan of the flat CM-PBE and direct-map stores,
* :func:`bursty_events_scalar` — the recursive §V dyadic descent, one
  scalar point query per visited node.
"""

from __future__ import annotations

from typing import Iterable, Literal

import numpy as np

from repro.core.dyadic import BurstyEvent, BurstyEventIndex
from repro.core.errors import (
    InvalidParameterError,
    require_tau,
    require_theta,
    require_time_range,
)
from repro.streams.frequency import CumulativeCurve, burstiness_from_curve


class ScalarCurveView:
    """A store's per-event estimate read one ``cumulative_frequency``
    call at a time (the curve view the scalar loops used)."""

    def __init__(self, store, event_id: int) -> None:
        self._store = store
        self._event_id = event_id

    def value(self, t: float) -> float:
        return float(self._store.cumulative_frequency(self._event_id, t))

    def size_in_bytes(self) -> int:
        return self._store.size_in_bytes()


def max_burstiness(
    curve: CumulativeCurve,
    knots: Iterable[float],
    tau: float,
    t_start: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
) -> tuple[float, float]:
    require_tau(tau)
    require_time_range(t_start, t_end)
    candidates = {t_start, t_end}
    for knot in knots:
        for shifted in (knot, knot + tau, knot + 2 * tau):
            if t_start <= shifted <= t_end:
                candidates.add(shifted)
            if piecewise == "linear":
                # Sample just inside each breakpoint: pieces may jump.
                before = float(np.nextafter(shifted, -np.inf))
                if t_start <= before <= t_end:
                    candidates.add(before)
    best_t = t_start
    best_value = float("-inf")
    for t in sorted(candidates):
        value = burstiness_from_curve(curve, t, tau)
        if value > best_value:
            best_value = value
            best_t = t
    return best_t, best_value


def bursty_time_intervals(
    curve: CumulativeCurve,
    knots: Iterable[float],
    theta: float,
    tau: float,
    t_end: float,
    piecewise: Literal["constant", "linear"] = "constant",
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    require_tau(tau)
    knot_list = sorted(knots)
    if not knot_list:
        return []
    breakpoints = sorted(
        {
            shifted
            for knot in knot_list
            for shifted in (knot, knot + tau, knot + 2 * tau)
            if shifted <= t_end
        }
    )
    if not breakpoints:
        return []
    if breakpoints[-1] < t_end:
        breakpoints.append(t_end)
    if piecewise == "constant":
        raw = _constant_intervals(curve, breakpoints, theta, tau, t_end)
    elif piecewise == "linear":
        raw = _linear_intervals(curve, breakpoints, theta, tau)
    else:
        raise InvalidParameterError(
            f"piecewise must be 'constant' or 'linear', got {piecewise!r}"
        )
    return merge_intervals(raw, merge_gap)


def _constant_intervals(
    curve: CumulativeCurve,
    breakpoints: list[float],
    theta: float,
    tau: float,
    t_end: float,
) -> list[tuple[float, float]]:
    intervals: list[tuple[float, float]] = []
    open_start: float | None = None
    for point in breakpoints:
        value = burstiness_from_curve(curve, point, tau)
        if value >= theta and open_start is None:
            open_start = point
        elif value < theta and open_start is not None:
            intervals.append((open_start, point))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, t_end))
    return intervals


def _linear_intervals(
    curve: CumulativeCurve,
    breakpoints: list[float],
    theta: float,
    tau: float,
) -> list[tuple[float, float]]:
    intervals: list[tuple[float, float]] = []
    for left, right in zip(breakpoints, breakpoints[1:]):
        width = right - left
        if width <= 0:
            continue
        # Sample just inside the piece: the function may jump at the
        # breakpoints themselves.
        lo_t = float(np.nextafter(left, right))
        hi_t = float(np.nextafter(right, left))
        b_lo = burstiness_from_curve(curve, lo_t, tau)
        b_hi = burstiness_from_curve(curve, hi_t, tau)
        if b_lo >= theta and b_hi >= theta:
            intervals.append((left, right))
        elif b_lo >= theta or b_hi >= theta:
            if b_hi == b_lo:
                crossing = left if b_lo >= theta else right
            else:
                fraction = (theta - b_lo) / (b_hi - b_lo)
                crossing = left + min(max(fraction, 0.0), 1.0) * width
            if b_lo >= theta:
                intervals.append((left, crossing))
            else:
                intervals.append((crossing, right))
    return intervals


def merge_intervals(
    intervals: list[tuple[float, float]],
    merge_gap: float = 0.0,
) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1] + merge_gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def canonical_hits(hits: list[BurstyEvent]) -> list[BurstyEvent]:
    """Burstiness descending, id ascending (the store-layer order)."""
    return sorted(hits, key=lambda hit: (-hit.burstiness, hit.event_id))


def flat_bursty_events(
    sketch, event_ids: Iterable[int], t: float, theta: float, tau: float
) -> list[BurstyEvent]:
    """The flat stores' universe scan: one scalar ``burstiness`` per id."""
    require_theta(theta)
    hits = []
    for event_id in event_ids:
        value = sketch.burstiness(event_id, t, tau)
        if value >= theta:
            hits.append(BurstyEvent(int(event_id), value))
    return canonical_hits(hits)


def bursty_events_scalar(
    index: BurstyEventIndex, t: float, theta: float, tau: float
) -> list[BurstyEvent]:
    """Reference scalar descent (one recursive point query per node),
    with the same point-query accounting as the vectorized descent."""
    require_theta(theta)
    require_tau(tau)
    results: list[BurstyEvent] = []
    top = index.decomposition.n_levels
    _descend(index, top, 0, t, theta, tau, results)
    results.sort(key=lambda hit: -hit.burstiness)
    return results


def _descend(
    index: BurstyEventIndex,
    level: int,
    range_id: int,
    t: float,
    theta: float,
    tau: float,
    results: list[BurstyEvent],
) -> None:
    low, _high = index.decomposition.range_bounds(range_id, level)
    if low >= index.universe_size:
        return
    if level == 0:
        estimate = index.point_query(range_id, t, tau)
        if estimate >= theta:
            results.append(BurstyEvent(range_id, estimate))
        return
    left, right = index.decomposition.children(range_id, level)
    index._point_queries_issued += 3
    b_parent = index.level_sketch(level).burstiness(range_id, t, tau)
    b_left = index.level_sketch(level - 1).burstiness(left, t, tau)
    b_right = index.level_sketch(level - 1).burstiness(right, t, tau)
    if b_parent * b_parent - 2.0 * b_left * b_right >= theta * theta:
        _descend(index, level - 1, left, t, theta, tau, results)
        _descend(index, level - 1, right, t, theta, tau, results)
