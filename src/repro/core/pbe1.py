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
  Aggarwal–Schieber–Tokuyama).

:func:`approximate_staircase` exploits both with a fully vectorized
*grid-refinement* sweep: each layer processes geometric stages of row
midpoints whose candidate ranges are bracketed by the argmins of the
nearest already-processed rows (and floored by the previous layer's
argmins), evaluating all surviving candidates of a stage in one numpy
segment-reduction.  Total work stays ``O(eta * n log n)`` candidate
evaluations but runs as a handful of array ops per stage instead of a
Python loop per corner.  The historical monotone convex-hull-trick layer
evaluator is kept as :func:`approximate_staircase_cht` and the naive DP as
:func:`approximate_staircase_bruteforce` — both serve as cross-check
oracles for tests.  An opt-in numba kernel (``REPRO_NUMBA=1`` or
``use_numba=True``) compiles the same candidate formula as a tight scalar
loop; it is bit-identical to the numpy path on exact-arithmetic inputs
(integer/dyadic timestamps and counts) because every path associates the
floating-point candidate expression identically:
``cand(i, j) = (-y_i * x_j) + B_i`` with ``B_i = E_{k-1}[i] - A_i`` and
``A_i = CW_i + (-y_i * x_i)``, adding ``CW_j`` only after the minimum.

**Streaming.**  :class:`PBE1` buffers incoming elements until the exact
curve of the current buffer reaches ``buffer_size`` corners, compresses the
buffer to ``eta`` corners with the DP, appends them to the persistent
corner list, and restarts.  Both buffer boundary corners are always kept
(Corollary 1), so consecutive buffers join exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.core.accel import numba_available, resolve_use_numba
from repro.core.errors import (
    EmptySketchError,
    InvalidParameterError,
    StreamOrderError,
    require_count,
)
from repro.streams.frequency import (
    BYTES_PER_FLOAT,
    burstiness_from_curve,
)

__all__ = [
    "PBE1",
    "StaircaseApproximation",
    "approximate_staircase",
    "approximate_staircase_bruteforce",
    "approximate_staircase_cht",
    "numba_available",
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
    xs: np.ndarray,
    ys: np.ndarray,
    eta: int,
    use_numba: bool | None = None,
) -> StaircaseApproximation:
    """Optimal ``eta``-corner staircase approximation (vectorized DP).

    Returns the selected corner indices (always containing ``0`` and
    ``n - 1``) and the minimal area error.  ``use_numba=True`` (or the
    ``REPRO_NUMBA=1`` environment flag) routes through the compiled
    scalar kernel when numba is installed; the numpy refinement sweep is
    the default and the fallback.
    """
    xs, ys, trivial = _validated(xs, ys, eta)
    if trivial is not None:
        return trivial
    cw = _gap_cost_table(xs, ys)
    budget = min(int(eta), xs.size)
    if resolve_use_numba(use_numba):
        error, selected = _numba_kernel()(xs, ys, cw, budget)
        return StaircaseApproximation(selected, float(error))
    error, selected = _refine_staircase(xs, ys, cw, budget)
    return StaircaseApproximation(selected, float(error))


# ----------------------------------------------------------------------
# Vectorized refinement DP (the default engine)
# ----------------------------------------------------------------------
# Stage sizing for the grid-refinement sweep: the first stage processes
# `_STAGE_FIRST` evenly spread rows against wide candidate ranges; each
# following stage grows by `_STAGE_RATIO` and brackets its rows between
# the argmins of the nearest already-processed rows.  Tuned so the three
# bench compressions (n = 1100/1500/1600, eta = 100) sit well above the
# 5x ingest floor on a plain numpy stack.
_STAGE_FIRST = 12
_STAGE_RATIO = 16

_PLAN_CACHE: dict[int, tuple[list[dict], np.ndarray]] = {}
_PLAN_CACHE_MAX = 64


def _refine_plan(n: int) -> tuple[list[dict], np.ndarray]:
    """Static per-``n`` stage structure: row midpoints and, per row, the
    index of the nearest already-processed row on each side."""
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
            zero = np.zeros(jms.size, dtype=np.intp)
            none = np.ones(jms.size, dtype=bool)
            left, left_missing = zero, none
            right, right_missing = zero.copy(), none.copy()
        else:
            pos = np.searchsorted(processed, jms)
            left = processed[np.maximum(pos, 1) - 1]
            left_missing = pos == 0
            right = processed[np.minimum(pos, processed.size - 1)]
            right_missing = pos >= processed.size
        stages.append(
            dict(
                jms=jms,
                left=left,
                left_missing=left_missing,
                right=right,
                right_missing=right_missing,
                jm1=jms - 1,
            )
        )
        processed = np.sort(np.concatenate([processed, jms]))
        size *= _STAGE_RATIO
    # One stage's candidate ranges can sum to several multiples of ``n``
    # before the brackets tighten (wide early layers, infeasible-neighbor
    # fallbacks); size the shared arange generously — it is cached per
    # ``n`` and a too-small buffer breaks the kernel with a shape error.
    ar = np.arange(80 * max(n, 1) + 64)
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[n] = (stages, ar)
    return stages, ar


def _refine_staircase(
    xs: np.ndarray, ys: np.ndarray, cw: np.ndarray, budget: int
) -> tuple[float, np.ndarray]:
    """All DP layers as vectorized refinement sweeps; returns the final
    error and the selected corner indices.

    Requires ``3 <= n`` and ``2 <= budget < n`` (the dispatcher handles
    the trivial cases).  Row ``j`` of layer ``k`` (0-based) is feasible
    iff ``j >= k + 1``; infeasible rows stay at ``inf`` naturally because
    every candidate reads an infinite ``E_{k-1}`` entry.
    """
    n = xs.size
    stages, ar = _refine_plan(n)
    nys = -ys
    A = cw + nys * xs
    stage_xs = [xs[stage["jms"]] for stage in stages]
    stage_cw = [cw[stage["jms"]] for stage in stages]

    inf = np.inf
    prev = np.full(n, inf)
    prev[0] = 0.0
    cur = np.empty(n)
    B = np.empty(n)
    args = np.zeros((budget - 1, n), dtype=np.intp)
    fin = np.zeros(n, dtype=bool)
    for k in range(budget - 1):
        if k == 0:
            # Only i = 0 is feasible: one closed-form sweep, associated
            # exactly like the general stage below (line value, then CW).
            np.multiply(nys[0], xs, out=cur)
            cur += prev[0] - A[0]
            cur += cw
            cur[0] = inf
            prev, cur = cur, prev
            continue
        arg_prev = args[k - 1]
        arg_cur = args[k]
        np.subtract(prev, A, out=B)
        for s, stage in enumerate(stages):
            jms = stage["jms"]
            ilos = arg_cur[stage["left"]]
            bad = stage["left_missing"] | ~fin[stage["left"]]
            ilos[bad] = k
            np.maximum(ilos, arg_prev[jms], out=ilos)
            ihis = arg_cur[stage["right"]]
            bad = stage["right_missing"] | ~fin[stage["right"]]
            ihis[bad] = n - 1
            np.minimum(ihis, stage["jm1"], out=ihis)
            np.minimum(ilos, ihis, out=ilos)
            cnt = ihis - ilos
            cnt += 1
            totals = np.cumsum(cnt)
            total = totals[-1]
            starts = np.empty(cnt.size, dtype=np.intp)
            starts[0] = 0
            starts[1:] = totals[:-1]
            idxs = ar[:total] - np.repeat(starts - ilos, cnt)
            cand = nys[idxs] * np.repeat(stage_xs[s], cnt)
            cand += B[idxs]
            mins = np.minimum.reduceat(cand, starts)
            matches = np.flatnonzero(cand == np.repeat(mins, cnt))
            amin = idxs[matches[np.searchsorted(matches, starts)]]
            row_fin = mins != inf
            amin[~row_fin] = 0
            cur[jms] = mins + stage_cw[s]
            arg_cur[jms] = amin
            fin[jms] = row_fin
        # Row 0 can pick up garbage through the clamped `j = 0` slot
        # (its empty candidate range wraps to index -1); it is never
        # feasible past layer 0, so pin it.
        cur[0] = inf
        arg_cur[0] = 0
        prev, cur = cur, prev
    selected = np.empty(budget, dtype=np.intp)
    j = n - 1
    selected[-1] = j
    for k in range(budget - 2, -1, -1):
        j = args[k, j]
        selected[k] = j
    return float(prev[n - 1]), selected


# ----------------------------------------------------------------------
# Scalar kernel (numba fast path + always-on parity oracle)
# ----------------------------------------------------------------------
def _staircase_dp_kernel(
    xs: np.ndarray, ys: np.ndarray, cw: np.ndarray, budget: int
) -> tuple[float, np.ndarray]:
    """The refinement DP as a plain scalar loop, numba-compilable as-is.

    Uses the exact floating-point association of the numpy sweep
    (``(-y_i * x_j) + B_i`` then ``+ CW_j`` after the minimum) with
    leftmost argmins, so on exact-arithmetic inputs the compiled kernel,
    this interpreted mirror and the numpy path agree bit-for-bit.
    """
    n = xs.shape[0]
    inf = np.inf
    A = np.empty(n)
    nys = np.empty(n)
    for i in range(n):
        nys[i] = -ys[i]
        A[i] = cw[i] + nys[i] * xs[i]
    prev = np.full(n, inf)
    prev[0] = 0.0
    cur = np.empty(n)
    args = np.zeros((budget - 1, n), dtype=np.int64)
    for k in range(budget - 1):
        for j in range(n):
            best = inf
            best_i = 0
            for i in range(k, j):
                if prev[i] == inf:
                    continue
                cand = nys[i] * xs[j] + (prev[i] - A[i])
                if cand < best:
                    best = cand
                    best_i = i
            if best == inf:
                cur[j] = inf
                args[k, j] = 0
            else:
                cur[j] = best + cw[j]
                args[k, j] = best_i
        for j in range(n):
            prev[j] = cur[j]
    selected = np.empty(budget, dtype=np.int64)
    j = n - 1
    selected[budget - 1] = j
    for k in range(budget - 2, -1, -1):
        j = args[k, j]
        selected[k] = j
    return prev[n - 1], selected


_NUMBA_COMPILED = None


def _numba_kernel():
    """Lazily njit-compile the scalar kernel (numba import deferred)."""
    global _NUMBA_COMPILED
    if _NUMBA_COMPILED is None:
        import numba

        _NUMBA_COMPILED = numba.njit(cache=True, fastmath=False)(
            _staircase_dp_kernel
        )
    return _NUMBA_COMPILED


def approximate_staircase_cht(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> StaircaseApproximation:
    """The historical ``O(eta * n)`` monotone convex-hull-trick engine.

    Kept as a second independent oracle: its per-layer lower-envelope
    evaluation shares no code with the refinement sweep, so agreement on
    the reported error is strong evidence for both.
    """
    xs, ys, trivial = _validated(xs, ys, eta)
    if trivial is not None:
        return trivial
    n = xs.size
    cw = _gap_cost_table(xs, ys)
    inf = float("inf")

    prev = [inf] * n  # E_{k-1}
    prev[0] = 0.0
    parent = np.full((eta + 1, n), -1, dtype=np.int32)
    xs_list = xs.tolist()
    ys_list = ys.tolist()
    cw_list = cw.tolist()

    best_layer_error = inf
    for k in range(2, eta + 1):
        current = [inf] * n
        # Monotone convex-hull trick: lines f_i(x) = -y_i * x + intercept_i
        # arrive with strictly decreasing slopes, queries at increasing x_j.
        slopes: list[float] = []
        intercepts: list[float] = []
        owners: list[int] = []
        head = 0
        for j in range(k - 1, n):
            i = j - 1
            if prev[i] != inf:
                slope = -ys_list[i]
                intercept = prev[i] - cw_list[i] + ys_list[i] * xs_list[i]
                # Pop hull lines made redundant by the new line.
                while len(slopes) - head >= 2:
                    s1, c1 = slopes[-2], intercepts[-2]
                    s2, c2 = slopes[-1], intercepts[-1]
                    # line 2 is unnecessary if the crossing of line 1 and the
                    # new line lies at or below line 2.
                    if (c2 - c1) * (s2 - slope) >= (intercept - c2) * (
                        s1 - s2
                    ):
                        slopes.pop()
                        intercepts.pop()
                        owners.pop()
                    else:
                        break
                if len(slopes) - head == 1 and slopes[-1] == slope:
                    # Equal slopes cannot happen (ys strictly increase) but
                    # guard against float collapse: keep the lower line.
                    if intercept < intercepts[-1]:
                        intercepts[-1] = intercept
                        owners[-1] = i
                else:
                    slopes.append(slope)
                    intercepts.append(intercept)
                    owners.append(i)
                if head >= len(slopes):
                    head = len(slopes) - 1
            if head < len(slopes):
                x = xs_list[j]
                while head + 1 < len(slopes) and (
                    slopes[head + 1] * x + intercepts[head + 1]
                    <= slopes[head] * x + intercepts[head]
                ):
                    head += 1
                value = slopes[head] * x + intercepts[head]
                current[j] = value + cw_list[j]
                parent[k][j] = owners[head]
        prev = current
    return _backtrack_lists(prev[n - 1], parent, eta, n)


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


def _backtrack_lists(
    final_error: float, parent: np.ndarray, eta: int, n: int
) -> StaircaseApproximation:
    selected = [n - 1]
    j = n - 1
    for k in range(eta, 1, -1):
        j = int(parent[k][j])
        selected.append(j)
    selected.reverse()
    return StaircaseApproximation(np.asarray(selected), float(final_error))


class PBE1:
    """Streaming PBE-1 for a single event stream.

    Parameters
    ----------
    eta:
        Corner budget per buffer (the paper's ``eta``; space/error knob).
    buffer_size:
        Corners of the exact curve buffered before compression (the paper's
        ``n``; defaults to the paper's experimental value 1500).
    use_numba:
        Route buffer compression through the compiled numba kernel.
        ``None`` (default) defers to the ``REPRO_NUMBA`` environment flag;
        either way the numpy path is used when numba is not installed.
        Runtime-only knob — never serialized, never affects results.
    """

    def __init__(
        self,
        eta: int,
        buffer_size: int = 1500,
        use_numba: bool | None = None,
    ) -> None:
        if eta < 2:
            raise InvalidParameterError(f"eta must be >= 2, got {eta}")
        if buffer_size < 2:
            raise InvalidParameterError(
                f"buffer_size must be >= 2, got {buffer_size}"
            )
        self.eta = eta
        self.buffer_size = buffer_size
        self.use_numba = use_numba
        self._kept_xs: list[float] = []
        self._kept_ys: list[float] = []
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
        last = (
            self._buffer_xs[-1]
            if self._buffer_xs
            else (self._kept_xs[-1] if self._kept_xs else None)
        )
        if last is not None and timestamp < last:
            raise StreamOrderError(
                f"timestamp {timestamp} arrived after {last}"
            )
        self._count += count
        if self._buffer_xs and self._buffer_xs[-1] == timestamp:
            self._buffer_ys[-1] = float(self._count)
            return
        if (
            not self._buffer_xs
            and self._kept_xs
            and self._kept_xs[-1] == timestamp
        ):
            # Same timestamp as the final kept corner of the previous
            # buffer: the corner simply grows taller.
            self._kept_ys[-1] = float(self._count)
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
        # exactly as the scalar path grows it in place.
        start = 0
        if self._buffer_xs:
            if self._buffer_xs[-1] == xs[0]:
                self._buffer_ys[-1] = ys[0]
                start = 1
        elif self._kept_xs and self._kept_xs[-1] == xs[0]:
            self._kept_ys[-1] = ys[0]
            start = 1
        n = len(xs)
        while start < n:
            take = min(self.buffer_size - len(self._buffer_xs), n - start)
            self._buffer_xs.extend(xs[start:start + take])
            self._buffer_ys.extend(ys[start:start + take])
            start += take
            if len(self._buffer_xs) >= self.buffer_size:
                self._compress_buffer()

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
        if ts.size > 1 and bool(np.any(np.diff(ts) < 0)):
            raise StreamOrderError("batch timestamps must be non-decreasing")
        last = (
            self._buffer_xs[-1]
            if self._buffer_xs
            else (self._kept_xs[-1] if self._kept_xs else None)
        )
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
        """Compress any partially filled buffer (call before querying the
        most recent corners at full fidelity; queries work without it)."""
        if self._buffer_xs:
            self._compress_buffer()

    def _compress_buffer(self) -> None:
        xs = np.asarray(self._buffer_xs)
        ys = np.asarray(self._buffer_ys)
        result = approximate_staircase(
            xs, ys, self.eta, use_numba=self.use_numba
        )
        self._construction_error += result.error
        self._kept_xs.extend(xs[result.selected].tolist())
        self._kept_ys.extend(ys[result.selected].tolist())
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
        idx = bisect.bisect_right(self._kept_xs, t) - 1
        if idx < 0:
            return 0.0
        return self._kept_ys[idx]

    def value_many(self, ts) -> np.ndarray:
        """Vectorized :meth:`value` over an array of query times.

        One ``np.searchsorted`` across the kept corners followed by the
        (strictly later) buffered corners replaces the two per-call
        bisects; results are bit-identical to per-call :meth:`value`.
        """
        xs = np.array(self._kept_xs + self._buffer_xs, dtype=np.float64)
        # Level 0.0 before the first corner, then one level per corner.
        ys = np.array(
            [0.0, *self._kept_ys, *self._buffer_ys], dtype=np.float64
        )
        return ys[np.searchsorted(xs, ts, side="right")]

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
        return list(self._kept_xs) + list(self._buffer_xs)

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
