"""PBE-2: persistent burstiness estimation without buffering (paper §III-B).

PBE-2 maintains an *online* piecewise-linear approximation (PLA) of the
cumulative-frequency staircase.  Every point of the approximation must stay
within ``[F(t) - gamma, F(t)]`` — never overestimating, never more than the
user error ``gamma`` below.  Each corner of the exact curve contributes a
*timestamped frequency range*; a line ``a t + b`` that cuts through a set
of ranges corresponds to a point ``(a, b)`` in the convex feasibility
polygon formed by the ranges' half-planes (Fig. 4).  The polygon is clipped
incrementally; when it empties, the current segment is finalized (any
surviving ``(a, b)`` works — we take the centroid) and a new polygon starts
from the offending range (Algorithm 2).

Following the paper, for every corner ``p_i = (t_i, F(t_i))`` a *pre-corner*
``(t_i - u, F(t_i - u))`` is also constrained (``u`` = one clock unit), so
the line cannot drift on the level span before a tall jump.

Lemma 4: the resulting burstiness estimate satisfies
``|b~(t) - b(t)| <= 4 * gamma``.  As in the paper, the guarantee is over
the *discrete clock domain* (timestamps that are multiples of ``unit``):
between two adjacent ticks a line may interpolate a jump, which is
exactly what the pre-corner constraints bound at tick resolution.

Duplicate timestamps are handled with a one-element delay: a corner is only
committed to the polygon once a strictly later timestamp proves its final
height.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.errors import (
    EmptySketchError,
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_finite_time,
)
from repro.sketch.geometry import (
    _EPS as _GEOM_EPS,
    _INF,
    ConvexPolygon,
    clip_strip,
    strip_parallelogram,
)
from repro.streams.frequency import BYTES_PER_FLOAT, burstiness_from_curve

__all__ = ["PBE2", "LineSegment"]

_NO_SEGMENTS = np.empty((4, 0))


@dataclass(frozen=True, slots=True)
class LineSegment:
    """One finalized PLA piece: ``a * t + b`` effective on [t_start, t_end]."""

    a: float
    b: float
    t_start: float
    t_end: float

    def value(self, t: float) -> float:
        """Evaluate the line, holding the end value beyond ``t_end``.

        Holding (rather than extrapolating) keeps the estimate at or below
        the non-decreasing exact curve for timestamps in the gap before the
        next segment starts.
        """
        clamped = min(max(t, self.t_start), self.t_end)
        return self.a * clamped + self.b


class PBE2:
    """Streaming, buffer-free PLA sketch for a single event stream.

    Parameters
    ----------
    gamma:
        Per-point error tolerance (the paper's ``gamma``); the estimate of
        ``F(t)`` stays within ``[F(t) - gamma, F(t)]``.
    unit:
        Clock granularity: the least interval between distinct timestamps
        (1 second for the paper's datasets).
    max_polygon_vertices:
        Optional hard cap on the feasibility polygon's complexity; when
        exceeded the current segment is finalized early (the paper's
        space-constraint escape hatch).
    """

    def __init__(
        self,
        gamma: float,
        unit: float = 1.0,
        max_polygon_vertices: int | None = None,
    ) -> None:
        if gamma <= 0:
            raise InvalidParameterError(f"gamma must be > 0, got {gamma}")
        if unit <= 0:
            raise InvalidParameterError(f"unit must be > 0, got {unit}")
        if max_polygon_vertices is not None and max_polygon_vertices < 3:
            raise InvalidParameterError("max_polygon_vertices must be >= 3")
        self.gamma = float(gamma)
        self.unit = float(unit)
        self.max_polygon_vertices = max_polygon_vertices
        # Finalized segments: a float64 table of four contiguous columns
        # (a, b, t_start, t_end), held as a ``(4, capacity)`` array whose
        # first ``_n`` rows are used and never change.  Only a table the
        # cell allocated has spare rows; a copy or a decoded cell holds
        # exactly ``_n``, so its first append reallocates and never
        # writes rows another cell can see.  ``_views`` holds a
        # memoryview of each column for the scalar :meth:`value`.
        self._bind(_NO_SEGMENTS)
        self._n = 0
        # One-element delay for duplicate timestamps.
        self._pending_t: float | None = None
        self._pending_y = 0.0
        self._last_committed_t: float | None = None
        self._last_committed_y = 0.0
        # Live polygon state: the feasibility region's vertex cycle as
        # parallel coordinate lists (``None`` = no polygon yet).
        self._poly_x: list[float] | None = None
        self._poly_y: list[float] | None = None
        self._open_ranges: list[tuple[float, float, float]] = []
        self._group_start: float | None = None
        self._group_last_t: float | None = None
        self._count = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` occurrences at ``timestamp`` (non-decreasing)."""
        require_count(count)
        timestamp = require_finite_time(float(timestamp))
        if self._pending_t is not None:
            if timestamp < self._pending_t:
                raise StreamOrderError(
                    f"timestamp {timestamp} arrived after {self._pending_t}"
                )
            if timestamp == self._pending_t:
                self._pending_y += count
                self._count += count
                return
            self._commit_pending()
        self._pending_t = timestamp
        self._pending_y = self._last_committed_y + count
        self._count += count

    def extend(self, timestamps) -> None:
        """Ingest many occurrence timestamps in stream order."""
        for t in timestamps:
            self.update(t)

    def extend_batch(self, timestamps, counts=None) -> None:
        """Vectorized ingest of a sorted timestamp batch.

        Byte-identical to the equivalent sequence of :meth:`update` calls:
        duplicate timestamps are collapsed with one ``np.unique`` pass into
        final corner heights, then every corner except the last is pushed
        through the same polygon-clipping commit path the scalar route
        uses; the last corner becomes the new pending (duplicate-delay)
        corner.

        Parameters
        ----------
        timestamps:
            1-d array-like of non-decreasing occurrence timestamps; the
            first must not precede the current pending corner.
        counts:
            Optional positive per-timestamp occurrence counts.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.ndim != 1:
            raise InvalidParameterError("timestamps must be a 1-d array")
        if ts.size == 0:
            return
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != ts.shape:
                raise InvalidParameterError(
                    "counts must match the timestamp batch shape"
                )
            if bool(np.any(counts <= 0)):
                raise InvalidParameterError("count must be positive")
        require_finite_time(ts)
        if ts.size > 1 and bool(np.any(np.diff(ts) < 0)):
            raise StreamOrderError("batch timestamps must be non-decreasing")
        if self._pending_t is not None and float(ts[0]) < self._pending_t:
            raise StreamOrderError(
                f"timestamp {float(ts[0])} arrived after {self._pending_t}"
            )
        uniq, group_start = np.unique(ts, return_index=True)
        group_end = np.append(group_start[1:], ts.size)
        if counts is None:
            cumulative = group_end
            total = int(ts.size)
        else:
            running = np.cumsum(counts)
            cumulative = running[group_end - 1]
            total = int(running[-1])
        base = self._count
        self._count += total
        heights = (cumulative + base).astype(np.float64)
        xs = uniq.tolist()
        ys = heights.tolist()
        start = 0
        if self._pending_t is not None:
            if xs[0] == self._pending_t:
                self._pending_y = ys[0]
                start = 1
            if len(xs) > start:
                # A strictly later timestamp proves the pending corner's
                # final height, exactly as in the scalar path.
                self._commit_pending()
        if len(xs) - start > 1:
            self._commit_corners_batch(uniq[start:-1], heights[start:-1])
        if len(xs) > start:
            self._pending_t = xs[-1]
            self._pending_y = ys[-1]

    def _commit_pending(self) -> None:
        """Push the now-final pending corner (and its pre-corner) into the
        feasibility polygon."""
        t = self._pending_t
        assert t is not None
        self._commit_corner(t, self._pending_y)
        self._pending_t = None

    def _commit_corner(self, t: float, y: float) -> None:
        """Commit one final corner (and its pre-corner) to the polygon."""
        pre_t = t - self.unit
        prev_t = self._last_committed_t
        if prev_t is None or pre_t > prev_t:
            self._add_range(pre_t, self._last_committed_y)
        self._add_range(t, y)
        self._last_committed_t = t
        self._last_committed_y = y

    def _commit_corners_batch(self, cts: np.ndarray, cys: np.ndarray) -> None:
        """Commit a run of final corners with vectorized range preparation.

        Bit-identical to calling :meth:`_commit_corner` per corner: the
        pre-corner times, inclusion mask and range bounds are computed with
        the same float operations, just elementwise, and the clip loop
        below mirrors :meth:`_add_range` statement for statement with the
        polygon state held in locals.
        """
        k = int(cts.size)
        pre_ts = cts - self.unit
        prev_ts = np.empty(k, dtype=np.float64)
        prev_ts[1:] = cts[:-1]
        prev_ts[0] = (
            -np.inf
            if self._last_committed_t is None
            else self._last_committed_t
        )
        prev_ys = np.empty(k, dtype=np.float64)
        prev_ys[1:] = cys[:-1]
        prev_ys[0] = self._last_committed_y
        # Interleave pre-corner / corner ranges, masking pre-corners that
        # fall at or before the previously committed corner.
        valid = np.empty(2 * k, dtype=bool)
        valid[0::2] = pre_ts > prev_ts
        valid[1::2] = True
        rt = np.empty(2 * k, dtype=np.float64)
        rt[0::2] = pre_ts
        rt[1::2] = cts
        rf = np.empty(2 * k, dtype=np.float64)
        rf[0::2] = prev_ys
        rf[1::2] = cys
        rtv = rt[valid]
        rfv = rf[valid]
        rtl = rtv.tolist()
        rfl = rfv.tolist()
        gamma = self.gamma
        # Same IEEE subtraction ``lo = hi - gamma`` as _add_range, done
        # once as a column instead of per range.
        rll = (rfv - gamma).tolist()
        maxv = self.max_polygon_vertices
        E = _GEOM_EPS
        inf = _INF
        ab = abs
        # Fused-dedupe output invariant: consecutive (non-cyclic) vertices
        # of any polygon produced by a clip pass differ by more than E in
        # x or y — so when the previous emission was the input-consecutive
        # predecessor vertex, the dedupe compare must pass and is skipped
        # (``adj`` below, which folds in the per-pass eligibility flag
        # ``pass_ok``).  ``consec_ok`` tracks whether the *current*
        # polygon is such an output; it starts pessimistic (the entry
        # polygon's provenance is unknown) and resets on parallelogram
        # creation, whose corners carry no such guarantee.
        consec_ok = False
        poly_x = self._poly_x
        poly_y = self._poly_y
        open_ranges = self._open_ranges
        group_start = self._group_start
        group_last = self._group_last_t
        for t, lo, hi in zip(rtl, rll, rfl):
            if poly_x is None:
                open_ranges.append((t, lo, hi))
                if len(open_ranges) == 2:
                    (t1, lo1, hi1), (t2, lo2, hi2) = open_ranges
                    verts = strip_parallelogram(
                        t1, lo1, hi1, t2, lo2, hi2
                    ).vertices
                    poly_x = [v[0] for v in verts]
                    poly_y = [v[1] for v in verts]
                    consec_ok = False
                    group_start = t1
                    group_last = t2
                else:
                    group_start = t
                    group_last = t
                continue
            # Inlined clip_strip: an exact float-for-float mirror of
            # repro.sketch.geometry.clip_strip, saving one function
            # call per range on the hot path.  The batch == scalar
            # property wall (tests/test_batch_properties.py) holds
            # this mirror to bit-identity with the scalar route.
            nx = poly_x
            ny = poly_y
            s = [t * x + y for x, y in zip(nx, ny)]
            q = sorted(s)
            smin = q[0]
            smax = q[-1]
            pass_ok = consec_ok
            if lo > smin:
                eps = E * max(1.0, ab(lo - smin), ab(lo - smax))
                if lo - smin > eps:
                    neps = -eps
                    ox = []
                    oy = []
                    os_ = []
                    oxa = ox.append
                    oya = oy.append
                    osa = os_.append
                    lastx = lasty = inf
                    adj = False
                    it = zip(nx, ny, s)
                    head = next(it)
                    x0, y0, s0 = head
                    fp = lo - s0
                    for x1, y1, s1 in chain(it, (head,)):
                        fq = lo - s1
                        if fp <= eps:
                            if adj:
                                oxa(x0)
                                oya(y0)
                                osa(s0)
                                lastx = x0
                                lasty = y0
                            elif (
                                ab(x0 - lastx) > E
                                or ab(y0 - lasty) > E
                            ):
                                oxa(x0)
                                oya(y0)
                                osa(s0)
                                lastx = x0
                                lasty = y0
                                adj = pass_ok
                            else:
                                adj = False
                            if fp < neps and fq > eps:
                                adj = False
                                ratio = fp / (fp - fq)
                                x = x0 + ratio * (x1 - x0)
                                y = y0 + ratio * (y1 - y0)
                                if (
                                    ab(x - lastx) > E
                                    or ab(y - lasty) > E
                                ):
                                    oxa(x)
                                    oya(y)
                                    osa(t * x + y)
                                    lastx = x
                                    lasty = y
                        elif fq < neps:
                            adj = False
                            ratio = fp / (fp - fq)
                            x = x0 + ratio * (x1 - x0)
                            y = y0 + ratio * (y1 - y0)
                            if (
                                ab(x - lastx) > E
                                or ab(y - lasty) > E
                            ):
                                oxa(x)
                                oya(y)
                                osa(t * x + y)
                                lastx = x
                                lasty = y
                        else:
                            adj = False
                        x0 = x1
                        y0 = y1
                        s0 = s1
                        fp = fq
                    if len(ox) > 1 and ab(ox[0] - lastx) <= E and ab(
                        oy[0] - lasty
                    ) <= E:
                        ox.pop()
                        oy.pop()
                        os_.pop()
                    nx = ox
                    ny = oy
                    pass_ok = True
                    consec_ok = True
                    if nx:
                        s = os_
                        q = sorted(s)
                        smin = q[0]
                        smax = q[-1]
            if nx and smax > hi:
                eps = E * max(1.0, ab(smin - hi), ab(smax - hi))
                if smax - hi > eps:
                    neps = -eps
                    ox = []
                    oy = []
                    oxa = ox.append
                    oya = oy.append
                    lastx = lasty = inf
                    adj = False
                    it = zip(nx, ny, s)
                    head = next(it)
                    x0, y0, s0 = head
                    fp = s0 - hi
                    for x1, y1, s1 in chain(it, (head,)):
                        fq = s1 - hi
                        if fp <= eps:
                            if adj:
                                oxa(x0)
                                oya(y0)
                                lastx = x0
                                lasty = y0
                            elif (
                                ab(x0 - lastx) > E
                                or ab(y0 - lasty) > E
                            ):
                                oxa(x0)
                                oya(y0)
                                lastx = x0
                                lasty = y0
                                adj = pass_ok
                            else:
                                adj = False
                            if fp < neps and fq > eps:
                                adj = False
                                ratio = fp / (fp - fq)
                                x = x0 + ratio * (x1 - x0)
                                y = y0 + ratio * (y1 - y0)
                                if (
                                    ab(x - lastx) > E
                                    or ab(y - lasty) > E
                                ):
                                    oxa(x)
                                    oya(y)
                                    lastx = x
                                    lasty = y
                        elif fq < neps:
                            adj = False
                            ratio = fp / (fp - fq)
                            x = x0 + ratio * (x1 - x0)
                            y = y0 + ratio * (y1 - y0)
                            if (
                                ab(x - lastx) > E
                                or ab(y - lasty) > E
                            ):
                                oxa(x)
                                oya(y)
                                lastx = x
                                lasty = y
                        else:
                            adj = False
                        x0 = x1
                        y0 = y1
                        fp = fq
                    if len(ox) > 1 and ab(ox[0] - lastx) <= E and ab(
                        oy[0] - lasty
                    ) <= E:
                        ox.pop()
                        oy.pop()
                    nx = ox
                    ny = oy
                    consec_ok = True
            if not nx:
                self._poly_x = poly_x
                self._poly_y = poly_y
                self._group_start = group_start
                self._group_last_t = group_last
                self._finalize_group()
                poly_x = None
                poly_y = None
                open_ranges = [(t, lo, hi)]
                group_start = t
                group_last = t
                continue
            poly_x = nx
            poly_y = ny
            group_last = t
            if maxv is not None and len(nx) > maxv:
                self._poly_x = poly_x
                self._poly_y = poly_y
                self._group_start = group_start
                self._group_last_t = group_last
                self._finalize_group()
                poly_x = None
                poly_y = None
                open_ranges = []
                group_start = None
                group_last = None
        self._poly_x = poly_x
        self._poly_y = poly_y
        self._open_ranges = open_ranges
        self._group_start = group_start
        self._group_last_t = group_last
        self._last_committed_t = rtl[-1]
        self._last_committed_y = rfl[-1]

    @property
    def _polygon(self) -> ConvexPolygon | None:
        """The live feasibility polygon as an object (``None`` when no
        polygon is open).  Reconstructed on demand from the internal
        coordinate lists — a debugging/test view, not the hot path."""
        if self._poly_x is None:
            return None
        return ConvexPolygon(list(zip(self._poly_x, self._poly_y)))

    def _add_range(self, t: float, freq: float) -> None:
        """Add the timestamped frequency range ``(t, [freq - gamma, freq])``."""
        lo = freq - self.gamma
        hi = freq
        if self._poly_x is None:
            self._open_ranges.append((t, lo, hi))
            if len(self._open_ranges) == 2:
                (t1, lo1, hi1), (t2, lo2, hi2) = self._open_ranges
                verts = strip_parallelogram(
                    t1, lo1, hi1, t2, lo2, hi2
                ).vertices
                self._poly_x = [v[0] for v in verts]
                self._poly_y = [v[1] for v in verts]
                self._group_start = t1
                self._group_last_t = t2
            else:
                self._group_start = t
                self._group_last_t = t
            return
        nx, ny = clip_strip(self._poly_x, self._poly_y, t, lo, hi)
        if not nx:
            self._finalize_group()
            self._open_ranges = [(t, lo, hi)]
            self._group_start = t
            self._group_last_t = t
            return
        self._poly_x = nx
        self._poly_y = ny
        self._group_last_t = t
        if (
            self.max_polygon_vertices is not None
            and len(nx) > self.max_polygon_vertices
        ):
            self._finalize_group()
            self._open_ranges = []
            self._group_start = None
            self._group_last_t = None

    def _finalize_group(self) -> None:
        """Emit the line segment for the current polygon / open ranges."""
        segment = self._provisional_segment()
        if segment is not None:
            n = self._n
            if n == self._cols.shape[1]:
                grown = np.empty((4, max(8, 2 * n)))
                grown[:, :n] = self._cols
                self._bind(grown)
            self._cols[:, n] = (
                segment.a, segment.b, segment.t_start, segment.t_end
            )
            self._n = n + 1
        self._poly_x = None
        self._poly_y = None

    def _provisional_segment(self) -> LineSegment | None:
        if self._poly_x is not None:
            # Centroid of the (never-empty) vertex cycle: the same
            # left-to-right float summation ConvexPolygon.centroid uses.
            count = len(self._poly_x)
            a = sum(self._poly_x) / count
            b = sum(self._poly_y) / count
            assert self._group_start is not None
            assert self._group_last_t is not None
            return LineSegment(a, b, self._group_start, self._group_last_t)
        if self._open_ranges:
            # A lone range: a flat line at its exact frequency value.
            t, _lo, hi = self._open_ranges[0]
            return LineSegment(0.0, hi, t, t)
        return None

    def _pending_segment(self) -> LineSegment | None:
        """A flat piece for a not-yet-committed duplicate-buffered corner."""
        if self._pending_t is None:
            return None
        return LineSegment(
            0.0, self._pending_y, self._pending_t, self._pending_t
        )

    def finalize(self) -> None:
        """Flush all live state into finalized segments.

        Queries work without calling this (live state is consulted on the
        fly); finalizing simply freezes the current polygon.
        """
        if self._pending_t is not None:
            self._commit_pending()
        if self._poly_x is not None or self._open_ranges:
            self._finalize_group()
            self._open_ranges = []
            self._group_start = None
            self._group_last_t = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, t: float) -> float:
        """Estimate ``F~(t)`` within ``[F(t) - gamma, F(t)]`` (clamped >= 0).

        Between finalized segments the last value is held; before the first
        segment the estimate is 0.
        """
        live: list[LineSegment] = []
        provisional = self._provisional_segment()
        if provisional is not None:
            live.append(provisional)
        pending = self._pending_segment()
        if pending is not None:
            live.append(pending)
        for segment in reversed(live):
            if t >= segment.t_start:
                return max(0.0, segment.value(t))
        a, b, t_start, t_end = self._views
        idx = bisect.bisect_right(t_start, t, 0, self._n) - 1
        if idx < 0:
            return 0.0
        # LineSegment.value of the row, without building the object.
        clamped = min(max(t, t_start[idx]), t_end[idx])
        return max(0.0, a[idx] * clamped + b[idx])

    def value_many(self, ts) -> np.ndarray:
        """Vectorized :meth:`value` over an array of query times.

        Finalized segments are evaluated with one ``np.searchsorted``
        over the ``t_start`` column plus a gathered
        ``a * clamp(t) + b``; the (at most two) live pieces override the
        finalized answer with the same precedence the scalar path uses
        (pending corner first, then the provisional polygon segment).
        Bit-identical to per-call :meth:`value`.
        """
        ts = np.asarray(ts, dtype=np.float64)
        out = np.zeros(ts.shape, dtype=np.float64)
        if self._n:
            cols = self._table()
            idx = cols[2].searchsorted(ts, side="right") - 1
            a, b, t0, t1 = cols[:, np.maximum(idx, 0)]
            clamped = np.minimum(np.maximum(ts, t0), t1)
            values = np.maximum(0.0, a * clamped + b)
            out = np.where(idx >= 0, values, 0.0)
        # Live pieces in scalar precedence order: the provisional polygon
        # segment, then (overriding it) the pending duplicate-delay corner.
        for segment in (self._provisional_segment(), self._pending_segment()):
            if segment is None:
                continue
            clamped = np.minimum(
                np.maximum(ts, segment.t_start), segment.t_end
            )
            out = np.where(
                ts >= segment.t_start,
                np.maximum(0.0, segment.a * clamped + segment.b),
                out,
            )
        return out

    def burstiness(self, t: float, tau: float) -> float:
        """Point query ``q(e, t, tau)``: estimated ``b(t)``."""
        if self._count == 0:
            raise EmptySketchError("PBE2 has ingested no elements")
        return burstiness_from_curve(self, t, tau)

    def segment_starts(self) -> list[float]:
        """Knot times where the approximation changes behaviour."""
        knots = self._table()[2:].ravel().tolist()
        provisional = self._provisional_segment()
        if provisional is not None:
            knots.append(provisional.t_start)
            knots.append(provisional.t_end)
        pending = self._pending_segment()
        if pending is not None:
            knots.append(pending.t_start)
        return knots

    @property
    def segments(self) -> list[LineSegment]:
        """Finalized PLA segments (call :meth:`finalize` to include all)."""
        return [LineSegment(*row) for row in self._table().T.tolist()]

    # The table as plain lists, for comparing states.
    _segments = segments

    @property
    def _segment_starts(self) -> list[float]:
        return self._table()[2].tolist()

    def _table(self) -> np.ndarray:
        """The finalized segments as a ``(4, n)`` view: the a, b,
        t_start and t_end columns, one entry per segment."""
        return self._cols[:, : self._n]

    def _set_table(self, table: np.ndarray) -> None:
        """Take a float64 ``(4, n)`` table as the finalized segments.  It
        has no spare rows, so ``table`` may be shared with another cell:
        the first append copies it."""
        self._bind(table)
        self._n = table.shape[1]

    def _bind(self, cols: np.ndarray) -> None:
        """Hold ``cols`` as the segment table, with a memoryview of each
        of its columns.  Cast through bytes, a view indexes a column of
        a mapping at any alignment; only a strided column (never one
        the cell grew itself, so never written later) is copied."""
        self._cols = cols
        self._views = tuple(
            memoryview(np.ascontiguousarray(column)).cast("B").cast("d")
            for column in cols
        )

    def __getstate__(self) -> dict:
        # Memoryviews do not pickle; the columns are rebound on load.
        state = dict(self.__dict__)
        del state["_views"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind(self._cols)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n_segments(self) -> int:
        """Number of finalized segments."""
        return self._n

    @property
    def count(self) -> int:
        """Total occurrences ingested."""
        return self._count

    def size_in_bytes(self) -> int:
        """Four floats per finalized segment."""
        return 4 * BYTES_PER_FLOAT * self.n_segments
