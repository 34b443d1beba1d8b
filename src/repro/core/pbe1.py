"""PBE-1: persistent burstiness estimation with buffering (paper §III-A).

PBE-1 approximates the exact cumulative-frequency staircase ``F(t)`` with a
staircase ``F~(t)`` built from ``eta`` of its own corner points, never
overestimating and minimizing the enclosed area ``Delta`` (the paper's
Eq. 3).  Lemmas 2/3 show the optimal approximation is a staircase through a
*subset* of the exact corners that must include both boundary corners, which
reduces construction to a discrete DP (Algorithm 1).

**DP acceleration.**  With prefix weights
``CW(j) = sum_{m<j} (x_{m+1} - x_m) * y_m`` the cost of a gap between
consecutive selected corners ``i < j`` is::

    cost(i, j) = CW(j) - CW(i) - y_i * (x_j - x_i)

so each DP layer ``E_k[j] = min_i E_{k-1}[i] + cost(i, j)`` is a
lower-envelope query over lines ``f_i(x) = -y_i * x + c_i`` evaluated at
``x_j``.  The weight is concave Monge (quadrangle inequality), which gives
two monotonicity facts about the *leftmost* argmin ``a_k(j)``:

* within a layer, ``a_k(j)`` is non-decreasing in ``j`` (the classical
  divide-and-conquer optimization), and
* across layers, ``a_{k+1}(j) >= a_k(j)`` (the k-link-path result of
  Aggarwal–Schieber–Tokuyama).  Rounding can break the second fact at
  near ties, so the sweep floors a row by the leftmost candidate of the
  previous layer within a rounding tolerance of its minimum
  (``_FLOOR_TOLERANCE``), not by its argmin.

:func:`approximate_staircases` exploits both with a fully vectorized
*grid-refinement* sweep: each layer processes geometric stages of row
midpoints whose candidate ranges are bracketed by the argmins of the
nearest already-processed rows (and floored by the previous layer's
argmins), evaluating all surviving candidates of a stage in one numpy
segment-reduction.  Total work stays ``O(eta * n log n)`` candidate
evaluations but runs as a handful of array ops per stage instead of a
Python loop per corner.  The sweep is batched: many cells (a CM-PBE grid's
partial buffers at a seal, say) are offset into one flat row space and
share every stage, so a fold of a whole grid pays the ~``eta * stages``
sequential numpy steps once instead of once per cell.  Every cell keeps
its own candidate ranges and the floating-point association
``cand(i, j) = (-y_i * x_j) + B_i`` with ``B_i = E_{k-1}[i] - A_i`` and
``A_i = CW_i + (-y_i * x_i)``, adding ``CW_j`` only after the minimum, so
a batched result is bit-identical to a one-cell call.  The naive DP is
kept as :func:`approximate_staircase_bruteforce`, the cross-check oracle
of ``tests/test_pbe1_dp.py``; the historical monotone convex-hull-trick
layer evaluator lives on in ``benchmarks/bench_throughput.py`` as the
scalar oracle of the PBE-1 throughput floor.

**Streaming.**  :class:`PBE1` buffers incoming elements until the exact
curve of the current buffer reaches ``buffer_size`` corners, compresses the
buffer to ``eta`` corners with the DP, appends them to the persistent
corner arrays, and restarts.  Both buffer boundary corners are always kept
(Corollary 1), so consecutive buffers join exactly.  :func:`fold_buffers`
compresses the partial buffers of many sketches in one batched sweep.

The kept corners are two read-only float64 arrays that are replaced,
never written in place, so copies, merges and decoded cells share them
(a decoded cell's arrays are views of its payload); the buffer is two
Python lists, appended per record.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import (
    EmptySketchError,
    InvalidParameterError,
    StreamOrderError,
    require_count,
    require_finite_time,
)
from repro.streams.frequency import (
    BYTES_PER_FLOAT,
    burstiness_from_curve,
)

__all__ = [
    "PBE1",
    "PackedCells",
    "StaircaseApproximation",
    "approximate_staircase",
    "approximate_staircase_bruteforce",
    "approximate_staircases",
    "fold_buffers",
    "smallest_eta_for_error",
]


@dataclass(frozen=True, slots=True)
class StaircaseApproximation:
    """Result of one offline approximation run."""

    selected: np.ndarray  # indices into the input corner arrays
    error: float  # area Delta between exact and approximate curves


def _gap_cost_table(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Prefix weights ``CW[j] = sum_{m<j} (x_{m+1} - x_m) * y_m``."""
    n = xs.size
    cw = np.zeros(n, dtype=np.float64)
    if n >= 2:
        cw[1:] = np.cumsum((xs[1:] - xs[:-1]) * ys[:-1])
    return cw


def approximate_staircase_bruteforce(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> StaircaseApproximation:
    """Reference ``O(eta * n^2)`` DP — used to validate the fast version."""
    xs, ys, trivial = _validated(xs, ys, eta)
    if trivial is not None:
        return trivial
    n = xs.size
    cw = _gap_cost_table(xs, ys)

    def cost(i: int, j: int) -> float:
        return cw[j] - cw[i] - ys[i] * (xs[j] - xs[i])

    inf = np.inf
    energy = np.full((eta + 1, n), inf)
    parent = np.full((eta + 1, n), -1, dtype=np.int64)
    energy[1][0] = 0.0
    for k in range(2, eta + 1):
        for j in range(k - 1, n):
            best = inf
            best_i = -1
            for i in range(k - 2, j):
                if energy[k - 1][i] == inf:
                    continue
                candidate = energy[k - 1][i] + cost(i, j)
                if candidate < best:
                    best = candidate
                    best_i = i
            energy[k][j] = best
            parent[k][j] = best_i
    return _backtrack(energy, parent, eta, n)


def approximate_staircase(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> StaircaseApproximation:
    """Optimal ``eta``-corner staircase approximation (vectorized DP).

    Returns the selected corner indices (always containing ``0`` and
    ``n - 1``) and the minimal area error.  The one-cell call of
    :func:`approximate_staircases`.
    """
    return approximate_staircases([(xs, ys)], eta)[0]


def approximate_staircases(
    cells: Sequence[tuple[np.ndarray, np.ndarray]], eta: int
) -> list[StaircaseApproximation]:
    """:func:`approximate_staircase` over many corner arrays in one sweep.

    ``cells`` is a sequence of ``(xs, ys)`` staircases.  Cells with
    ``n <= eta`` or ``n <= 2`` take the closed form (every corner, zero
    error); all the others run through one grid-refinement sweep whose
    stage ``s`` is the union of every cell's stage ``s`` (split only
    when its argmin table would outgrow ``_SWEEP_ARG_BYTES``).  Each
    cell keeps its own candidate ranges, float association and leftmost
    argmin, so every result is bit-identical to a one-cell call.
    """
    results: list[StaircaseApproximation | None] = [None] * len(cells)
    sweep: list[tuple[int, np.ndarray, np.ndarray]] = []
    for slot, (xs, ys) in enumerate(cells):
        xs, ys, trivial = _validated(xs, ys, eta)
        if trivial is None:
            sweep.append((slot, xs, ys))
        else:
            results[slot] = trivial
    for chunk in _sweep_chunks(sweep, eta):
        errors, selected = _refine_staircases(
            [xs for _, xs, _ in chunk], [ys for _, _, ys in chunk], eta
        )
        for row, (slot, _, _) in enumerate(chunk):
            results[slot] = StaircaseApproximation(
                selected[row], float(errors[row])
            )
    return results  # type: ignore[return-value]


def _sweep_chunks(sweep: list, eta: int) -> list[list]:
    """Split the cells of a sweep so that each sweep's argmin table
    (``eta - 1`` rows of 8 bytes per corner) stays within
    ``_SWEEP_ARG_BYTES``; a cell larger than that sweeps alone.  A seal
    of a CM-PBE grid fits in one sweep; a fold of thousands of direct-map
    cells does not hold an ``eta x all-corners`` table at once."""
    limit = _SWEEP_ARG_BYTES // (8 * (int(eta) - 1))
    chunks: list[list] = []
    rows = limit
    for cell in sweep:
        size = cell[1].size
        if rows + size > limit:
            chunks.append([])
            rows = 0
        chunks[-1].append(cell)
        rows += size
    return chunks


# ----------------------------------------------------------------------
# Vectorized refinement DP (the one engine)
# ----------------------------------------------------------------------
# Stage sizing for the grid-refinement sweep: the first stage processes
# `_STAGE_FIRST` evenly spread rows against wide candidate ranges; each
# following stage grows by `_STAGE_RATIO` and brackets its rows between
# the argmins of the nearest already-processed rows.  Tuned so the three
# bench compressions (n = 1100/1500/1600, eta = 100) sit well above the
# 5x ingest floor on a plain numpy stack.
_STAGE_FIRST = 12
_STAGE_RATIO = 16
# Upper bound on one batched sweep's argmin table (see `_sweep_chunks`).
_SWEEP_ARG_BYTES = 8 << 20
# The cross-layer floor `a_{k+1}(j) >= a_k(j)` holds for exact leftmost
# argmins, but float rounding can break a near tie of layer `k` to the
# right, after which layer `k + 1` ties (or beats) a candidate left of
# that argmin.  So the floor is the leftmost candidate within this many
# `eps * y_max * |x|_max` of the layer's minimum.  Full-range scans of
# epoch-scale inputs (n <= 80) needed at most 1.65.
_FLOOR_TOLERANCE = 4.0

_PLAN_CACHE: dict[int, list[dict]] = {}
_PLAN_CACHE_MAX = 64


def _refine_plan(n: int) -> list[dict]:
    """Static per-``n`` stage structure: row midpoints and, per row, the
    index of the nearest already-processed row on each side (``-1`` when
    there is none)."""
    plan = _PLAN_CACHE.get(n)
    if plan is not None:
        return plan
    remaining = np.arange(n)
    stages: list[dict] = []
    processed = np.empty(0, dtype=np.intp)
    size = _STAGE_FIRST
    while remaining.size:
        if size >= remaining.size:
            jms = remaining
        else:
            pick = np.unique(
                np.linspace(0, remaining.size - 1, size)
                .round()
                .astype(np.intp)
            )
            jms = remaining[pick]
        keep = np.ones(remaining.size, dtype=bool)
        keep[np.searchsorted(remaining, jms)] = False
        remaining = remaining[keep]
        if processed.size == 0:
            left = np.full(jms.size, -1, dtype=np.intp)
            right = left.copy()
        else:
            pos = np.searchsorted(processed, jms)
            left = processed[np.maximum(pos, 1) - 1]
            left[pos == 0] = -1
            right = processed[np.minimum(pos, processed.size - 1)]
            right[pos >= processed.size] = -1
        stages.append(dict(jms=jms, left=left, right=right))
        processed = np.sort(np.concatenate([processed, jms]))
        size *= _STAGE_RATIO
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[n] = stages
    return stages


def _batched_stages(
    ns: np.ndarray, offsets: np.ndarray
) -> list[tuple[np.ndarray, ...]]:
    """Every cell's :func:`_refine_plan` offset into one flat row space.

    Stage ``s`` is the union of each cell's stage ``s`` (cells with fewer
    stages drop out).  Per row it carries the flat row index, the flat
    and the local (``-1`` if missing) left and right bracket rows, the
    local ``j - 1`` cap, and its cell's first flat row.
    """
    plans = [_refine_plan(int(n)) for n in ns]
    stages = []
    for s in range(max(len(plan) for plan in plans)):
        members = [c for c, plan in enumerate(plans) if s < len(plan)]
        parts = [plans[c][s] for c in members]
        first = np.repeat(
            offsets[members], [part["jms"].size for part in parts]
        )
        local = np.concatenate([part["jms"] for part in parts])
        left = np.concatenate([part["left"] for part in parts])
        right = np.concatenate([part["right"] for part in parts])
        stages.append(
            (
                local + first,
                left + first,
                left,
                right + first,
                right,
                local - 1,
                first,
            )
        )
    return stages


def _refine_staircases(
    xss: list[np.ndarray], yss: list[np.ndarray], budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """All DP layers of many cells as one vectorized refinement sweep;
    returns each cell's final error and its selected corner indices
    (one row per cell).

    Requires ``3 <= n`` and ``2 <= budget < n`` for every cell (the
    dispatcher handles the trivial cases).  The cells are concatenated
    into one flat row space; argmins are stored as *local* corner
    indices, exactly as a one-cell sweep stores them, and shifted by the
    cell's first flat row only to address candidates.  Row ``j`` of a
    cell is feasible in layer ``k`` (0-based) iff ``j >= k + 1``;
    infeasible rows stay at ``inf`` naturally because every candidate
    reads an infinite ``E_{k-1}`` entry.
    """
    ns = np.array([xs.size for xs in xss], dtype=np.intp)
    offsets = np.zeros(ns.size, dtype=np.intp)
    np.cumsum(ns[:-1], out=offsets[1:])
    xs = np.concatenate(xss)
    ys = np.concatenate(yss)
    cw = np.concatenate([_gap_cost_table(x, y) for x, y in zip(xss, yss)])
    stages = _batched_stages(ns, offsets)
    nys = -ys
    A = cw + nys * xs
    # Rounding scale of a cell's candidates: every term (`CW` included)
    # is within twice `y_max * |x|_max`.  See `_FLOOR_TOLERANCE`.
    scale = [
        y[-1] * max(abs(x[0]), abs(x[-1])) for x, y in zip(xss, yss)
    ]
    tol = np.repeat(
        _FLOOR_TOLERANCE * np.finfo(np.float64).eps * np.array(scale), ns
    )
    stage_xs = [xs[stage[0]] for stage in stages]
    stage_cw = [cw[stage[0]] for stage in stages]
    stage_tol = [tol[stage[0]] for stage in stages]
    # Any cap at or above every local `j - 1` stands in for `n - 1`.
    no_right = int(ns.max())

    inf = np.inf
    rows = xs.size
    prev = np.full(rows, inf)
    prev[offsets] = 0.0
    cur = np.empty(rows)
    B = np.empty(rows)
    args = np.zeros((budget - 1, rows), dtype=np.intp)
    floor_prev = np.zeros(rows, dtype=np.intp)
    floor_cur = np.zeros(rows, dtype=np.intp)
    ar = np.arange(0)
    for k in range(budget - 1):
        if k == 0:
            # Only each cell's first row is feasible: one closed-form
            # sweep, associated exactly like the general stage below
            # (line value, then CW).
            np.multiply(np.repeat(nys[offsets], ns), xs, out=cur)
            cur += np.repeat(prev[offsets] - A[offsets], ns)
            cur += cw
            cur[offsets] = inf
            prev, cur = cur, prev
            continue
        arg_cur = args[k]
        floor_prev, floor_cur = floor_cur, floor_prev
        np.subtract(prev, A, out=B)
        for s, stage in enumerate(stages):
            jms, left, left_local, right, right_local, jm1, first = stage
            # Row `j` is feasible in layer `k` iff its local index is at
            # least `k + 1`; a missing or infeasible neighbour brackets
            # nothing.
            ilos = arg_cur[left]
            ilos[left_local <= k] = k
            np.maximum(ilos, floor_prev[jms], out=ilos)
            ihis = arg_cur[right]
            ihis[right_local <= k] = no_right
            np.minimum(ihis, jm1, out=ihis)
            np.minimum(ilos, ihis, out=ilos)
            cnt = ihis - ilos
            cnt += 1
            totals = np.cumsum(cnt)
            total = totals[-1]
            if ar.size < total:
                ar = np.arange(total)
            starts = np.empty(cnt.size, dtype=np.intp)
            starts[0] = 0
            starts[1:] = totals[:-1]
            shift = starts - ilos
            shift -= first
            idxs = ar[:total] - np.repeat(shift, cnt)
            cand = nys[idxs] * np.repeat(stage_xs[s], cnt)
            cand += B[idxs]
            mins = np.minimum.reduceat(cand, starts)
            # The next layer's floor is the leftmost candidate within
            # the rounding tolerance of the minimum; it is the leftmost
            # argmin too unless a near tie lies left of it.
            near = np.flatnonzero(cand <= np.repeat(mins + stage_tol[s], cnt))
            near = near[np.searchsorted(near, starts)]
            amin = idxs[near]
            amin -= first
            floor_cur[jms] = amin
            if not np.array_equal(cand[near], mins):
                matches = np.flatnonzero(cand == np.repeat(mins, cnt))
                amin = idxs[matches[np.searchsorted(matches, starts)]]
                amin -= first
            cur[jms] = mins + stage_cw[s]
            arg_cur[jms] = amin
        # A cell's first row picks up garbage through its clamped
        # `j - 1 = -1` slot (the flat candidate lands on the row just
        # before the cell, as a lone cell's `-1` wraps to its last row);
        # it is never feasible past layer 0, so pin it.
        cur[offsets] = inf
        arg_cur[offsets] = 0
        prev, cur = cur, prev
    selected = np.empty((ns.size, budget), dtype=np.intp)
    j = ns - 1
    selected[:, -1] = j
    for k in range(budget - 2, -1, -1):
        j = args[k, offsets + j]
        selected[:, k] = j
    return prev[offsets + ns - 1], selected


def smallest_eta_for_error(
    xs: np.ndarray, ys: np.ndarray, max_error: float
) -> StaircaseApproximation:
    """Smallest number of corners whose optimal error is ``<= max_error``.

    This is the paper's alternative mode where the user imposes a hard cap
    on the error instead of a space budget (§III-A).  The DP layers are
    computed incrementally until the cap is met.
    """
    if max_error < 0:
        raise InvalidParameterError("max_error must be >= 0")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.size
    if n <= 2:
        return StaircaseApproximation(np.arange(n), 0.0)
    for eta in range(2, n + 1):
        result = approximate_staircase(xs, ys, eta)
        if result.error <= max_error:
            return result
    return StaircaseApproximation(np.arange(n), 0.0)


def _validated(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> tuple[np.ndarray, np.ndarray, StaircaseApproximation | None]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidParameterError("xs and ys must be 1-d of equal size")
    n = xs.size
    if eta < 2 and n > 1:
        raise InvalidParameterError(
            f"eta must be >= 2 to keep both boundary corners, got {eta}"
        )
    if n >= 2 and (np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0)):
        raise InvalidParameterError(
            "corners must have strictly increasing xs and ys"
        )
    if eta >= n or n <= 2:
        return xs, ys, StaircaseApproximation(np.arange(n), 0.0)
    return xs, ys, None


def _backtrack(
    energy: np.ndarray, parent: np.ndarray, eta: int, n: int
) -> StaircaseApproximation:
    error = float(energy[eta][n - 1])
    selected = [n - 1]
    j = n - 1
    for k in range(eta, 1, -1):
        j = int(parent[k][j])
        selected.append(j)
    selected.reverse()
    return StaircaseApproximation(np.asarray(selected), error)


_NO_CORNERS = np.empty(0, dtype=np.float64)
_NO_CORNERS.flags.writeable = False


class PBE1:
    """Streaming PBE-1 for a single event stream.

    Parameters
    ----------
    eta:
        Corner budget per buffer (the paper's ``eta``; space/error knob).
    buffer_size:
        Corners of the exact curve buffered before compression (the paper's
        ``n``; defaults to the paper's experimental value 1500).
    """

    def __init__(self, eta: int, buffer_size: int = 1500) -> None:
        if eta < 2:
            raise InvalidParameterError(f"eta must be >= 2, got {eta}")
        if buffer_size < 2:
            raise InvalidParameterError(
                f"buffer_size must be >= 2, got {buffer_size}"
            )
        self.eta = eta
        self.buffer_size = buffer_size
        self._kept_xs: np.ndarray = _NO_CORNERS
        self._kept_ys: np.ndarray = _NO_CORNERS
        # A writable alias of _kept_ys while the cell made those levels
        # and has handed them to no one (else None): a tie may then
        # raise the last level in place.
        self._kept_ys_writer: np.ndarray | None = None
        self._buffer_xs: list[float] = []
        self._buffer_ys: list[float] = []
        self._count = 0
        self._construction_error = 0.0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, timestamp: float, count: int = 1) -> None:
        """Ingest ``count`` occurrences at ``timestamp`` (non-decreasing)."""
        require_count(count)
        require_finite_time(timestamp)
        last = self._last_time()
        if last is not None and timestamp < last:
            raise StreamOrderError(
                f"timestamp {timestamp} arrived after {last}"
            )
        self._count += count
        if last == timestamp:
            # Same timestamp as the latest corner: it grows taller.
            if self._buffer_xs:
                self._buffer_ys[-1] = float(self._count)
            else:
                self._grow_last_kept(float(self._count))
            return
        self._buffer_xs.append(float(timestamp))
        self._buffer_ys.append(float(self._count))
        if len(self._buffer_xs) >= self.buffer_size:
            self._compress_buffer()

    def extend(self, timestamps) -> None:
        """Ingest many occurrence timestamps in stream order."""
        for t in timestamps:
            self.update(t)

    def extend_batch(self, timestamps, counts=None) -> None:
        """Vectorized ingest of a sorted timestamp batch.

        Produces byte-identical state to the equivalent sequence of
        :meth:`update` calls (same corners, same compression points, same
        accumulated error), but aggregates duplicate timestamps with one
        ``np.unique`` pass and appends whole corner chunks to the buffer,
        compressing per buffer-fill instead of checking per element.

        Parameters
        ----------
        timestamps:
            1-d array-like of non-decreasing occurrence timestamps; the
            first must not precede anything already ingested.
        counts:
            Optional positive per-timestamp occurrence counts.
        """
        xs, ys = self._batched_corners(timestamps, counts)
        if xs is None:
            return
        # Merge the leading corner into an existing same-timestamp corner,
        # exactly as the scalar path grows it.
        start = 0
        if self._buffer_xs:
            if self._buffer_xs[-1] == xs[0]:
                self._buffer_ys[-1] = ys[0]
                start = 1
        elif self._kept_xs.size and self._kept_xs[-1] == xs[0]:
            self._grow_last_kept(ys[0])
            start = 1
        n = len(xs)
        while start < n:
            take = min(self.buffer_size - len(self._buffer_xs), n - start)
            self._buffer_xs.extend(xs[start:start + take])
            self._buffer_ys.extend(ys[start:start + take])
            start += take
            if len(self._buffer_xs) >= self.buffer_size:
                self._compress_buffer()

    def __getstate__(self) -> dict:
        # An unpickled cell may get its kept levels as a read-only view
        # of the pickle's bytes, so it starts out owning none.
        return {**self.__dict__, "_kept_ys_writer": None}

    def _last_time(self) -> float | None:
        """Time of the latest corner, buffered or kept (None if none)."""
        if self._buffer_xs:
            return self._buffer_xs[-1]
        if self._kept_xs.size:
            return float(self._kept_xs[-1])
        return None

    def _grow_last_kept(self, y: float) -> None:
        """Raise the final kept corner to level ``y``: in place when the
        cell owns its kept levels, else on a private copy (so a run of
        ties copies at most once)."""
        if self._kept_ys_writer is not None:
            self._kept_ys_writer[-1] = y
            return
        ys = self._kept_ys.copy()
        ys[-1] = y
        self._set_kept(self._kept_xs, ys, owned=True)

    def _set_kept(
        self, xs: np.ndarray, ys: np.ndarray, owned: bool = False
    ) -> None:
        """Take float64 ``(xs, ys)`` as the kept corners, read-only from
        now on: copies, merges and decoded payloads share kept arrays,
        so only levels the cell ``owned`` (made and shared with no one)
        are ever written in place, through a writable alias."""
        writer = None
        if owned:
            writer, ys = ys, ys.view()
        xs.flags.writeable = False
        ys.flags.writeable = False
        self._kept_xs = xs
        self._kept_ys = ys
        self._kept_ys_writer = writer

    def _batched_corners(
        self, timestamps, counts
    ) -> tuple[list[float], list[float]] | tuple[None, None]:
        """Validate a batch and collapse it to exact staircase corners.

        Returns ``(xs, ys)`` — unique timestamps with the cumulative count
        through each one's final occurrence — and bumps ``self._count``.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.ndim != 1:
            raise InvalidParameterError("timestamps must be a 1-d array")
        if ts.size == 0:
            return None, None
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
        last = self._last_time()
        first = float(ts[0])
        if last is not None and first < last:
            raise StreamOrderError(
                f"timestamp {first} arrived after {last}"
            )
        uniq, group_start = np.unique(ts, return_index=True)
        if counts is None:
            cumulative = np.append(group_start[1:], ts.size)
            total = int(ts.size)
        else:
            running = np.cumsum(counts)
            cumulative = running[
                np.append(group_start[1:], ts.size) - 1
            ]
            total = int(running[-1])
        ys = (cumulative + self._count).astype(np.float64)
        self._count += total
        return uniq.tolist(), ys.tolist()

    def flush(self) -> None:
        """Compress any partially filled buffer into the kept corners.

        Buffered corners are the exact curve; a flush trades that
        fidelity for space, exactly like a full-buffer compression.
        Queries work without it.
        """
        if self._buffer_xs:
            self._compress_buffer()

    def _compress_buffer(self) -> None:
        fold_buffers([self])

    def _commit_fold(
        self, xs: np.ndarray, ys: np.ndarray, result: StaircaseApproximation
    ) -> None:
        """Append the selected buffer corners and start a new buffer."""
        self._construction_error += result.error
        self._set_kept(
            np.concatenate((self._kept_xs, xs[result.selected])),
            np.concatenate((self._kept_ys, ys[result.selected])),
            owned=True,
        )
        self._buffer_xs = []
        self._buffer_ys = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value(self, t: float) -> float:
        """Estimate ``F~(t)`` — never above the exact ``F(t)``."""
        buffer_idx = bisect.bisect_right(self._buffer_xs, t) - 1
        if buffer_idx >= 0:
            return self._buffer_ys[buffer_idx]
        idx = self._kept_xs.searchsorted(t, side="right")
        if idx == 0:
            return 0.0
        return float(self._kept_ys[idx - 1])

    def value_many(self, ts) -> np.ndarray:
        """Vectorized :meth:`value` over an array of query times.

        One ``np.searchsorted`` across the kept corners followed by the
        (strictly later) buffered corners replaces the two per-call
        bisects; results are bit-identical to per-call :meth:`value`.
        """
        xs, ys = self._corner_arrays()
        # Level 0.0 before the first corner, then one level per corner.
        levels = np.concatenate(([0.0], ys))
        return levels[np.searchsorted(xs, ts, side="right")]

    def _corner_arrays(
        self, share: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Kept then buffered corners as float64 ``(xs, ys)`` arrays (the
        read-only kept arrays themselves when nothing is buffered).  A
        caller that keeps them passes ``share``: the cell then stops
        writing its kept levels in place."""
        if not self._buffer_xs:
            if share:
                self._kept_ys_writer = None
            return self._kept_xs, self._kept_ys
        return (
            np.concatenate((self._kept_xs, self._buffer_xs)),
            np.concatenate((self._kept_ys, self._buffer_ys)),
        )

    def burstiness(self, t: float, tau: float) -> float:
        """Point query ``q(e, t, tau)``: estimated ``b(t)``."""
        if self._count == 0:
            raise EmptySketchError("PBE1 has ingested no elements")
        return burstiness_from_curve(self, t, tau)

    def segment_starts(self) -> list[float]:
        """Times at which the approximate curve changes level.

        The bursty-time query (paper §V) only needs point queries at these
        instants (plus their ``tau``/``2 tau`` shifts).
        """
        return self._kept_xs.tolist() + self._buffer_xs

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def n_corners(self) -> int:
        """Corners currently stored (kept plus still-buffered)."""
        return len(self._kept_xs) + len(self._buffer_xs)

    @property
    def count(self) -> int:
        """Total occurrences ingested."""
        return self._count

    @property
    def construction_error(self) -> float:
        """Accumulated optimal area error over all compressed buffers."""
        return self._construction_error

    def size_in_bytes(self) -> int:
        """Two floats per kept corner (buffered corners are transient)."""
        return 2 * BYTES_PER_FLOAT * len(self._kept_xs)


class PackedCells:
    """The corners of many PBE-1 cells in flat arrays, for batch reads.

    ``xs`` concatenates every cell's kept + buffered corner times; ``ys``
    holds the levels with one leading ``0.0`` per cell, so cell ``c`` owns
    ``xs[starts[c]:starts[c + 1]]`` and ``ys[starts[c] + c:starts[c + 1]
    + c + 1]`` — exactly the arrays :meth:`PBE1.value_many` searches.

    A batch lookup of ``(cell, t)`` pairs uses the exact integer key
    ``cell * (M + 1) + searchsorted(U, x, "right")``, where ``U`` is
    ``np.unique(xs)`` and ``M`` its size: keys of the corners are sorted
    (cell-major, time-minor), and a corner's key is at most the query's
    key iff it lies in the queried cell at or before ``t``.  So every
    lookup is two ``np.searchsorted(..., side="right")`` calls and equals
    a per-cell ``value_many`` bit for bit.

    Built once per container version and never mutated afterwards, so
    concurrent readers may share it.
    """

    __slots__ = ("xs", "ys", "starts", "_unique", "_keys")

    def __init__(self, cells: Sequence[PBE1]) -> None:
        columns = [cell._corner_arrays() for cell in cells]
        n_cells = len(columns)
        sizes = np.array([xs.size for xs, _ in columns], dtype=np.int64)
        starts = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        xs = np.concatenate([xs for xs, _ in columns] + [np.empty(0)])
        zero = np.zeros(1)
        ys = np.concatenate(
            [part for _, ys in columns for part in (zero, ys)] + [np.empty(0)]
        )
        # For a corner, searchsorted(unique, x, "right") is its rank + 1.
        unique, rank = np.unique(xs, return_inverse=True)
        cell_of = np.repeat(np.arange(n_cells, dtype=np.int64), sizes)
        self.xs = xs
        self.ys = ys
        self.starts = starts
        self._unique = unique
        self._keys = cell_of * (unique.size + 1) + rank + 1

    def cell(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Cell ``c``'s corner times and its levels (leading ``0.0``)."""
        lo, hi = int(self.starts[c]), int(self.starts[c + 1])
        return self.xs[lo:hi], self.ys[lo + c : hi + c + 1]

    def values(self, c: int, ts) -> np.ndarray:
        """``F~`` of cell ``c`` at every time in ``ts``."""
        xs, ys = self.cell(c)
        return ys[np.searchsorted(xs, ts, side="right")]

    def lookup(self, slots: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """``F~`` of cell ``slots[i]`` at ``ts[i]`` (shapes broadcast)."""
        keys = slots * (self._unique.size + 1) + np.searchsorted(
            self._unique, ts, side="right"
        )
        return self.ys[np.searchsorted(self._keys, keys, side="right") + slots]


def fold_buffers(cells: Iterable[PBE1]) -> None:
    """Compress the partial buffer of every cell in place, batched.

    Cells with an empty buffer are left alone; the rest are grouped by
    ``eta`` and each group runs through one :func:`approximate_staircases`
    call.  Every cell ends in exactly the state its own :meth:`PBE1.flush`
    would leave.
    """
    groups: dict[int, list[PBE1]] = {}
    for cell in cells:
        if cell._buffer_xs:
            groups.setdefault(cell.eta, []).append(cell)
    for eta, group in groups.items():
        buffers = [
            (np.asarray(cell._buffer_xs), np.asarray(cell._buffer_ys))
            for cell in group
        ]
        results = approximate_staircases(buffers, eta)
        for cell, (xs, ys), result in zip(group, buffers, results):
            cell._commit_fold(xs, ys, result)
