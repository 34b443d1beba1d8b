"""Frequency curves.

The cumulative frequency ``F_e(t)`` of an event is a monotonically
non-decreasing *staircase* curve over time (paper §II-A, Fig. 2a).  This
module provides:

* :class:`StaircaseCurve` — a staircase defined by its *left-upper corner
  points* ``P_F = {(x_i, y_i)}`` (the paper's notation), with ``O(log n)``
  point evaluation,
* :func:`corners_from_timestamps` — extract corner points from a sorted
  timestamp sequence (duplicates collapse into a single, taller corner),
* :func:`staircase_area_between` — the area enclosed between an exact
  staircase and an approximation that never overestimates it (the paper's
  error measure ``Delta``),
* :class:`CumulativeCurve` — the protocol every curve estimator implements
  (exact curves, PBE-1, PBE-2 and CM-PBE cells all satisfy it).

The burstiness identity used everywhere (paper Eq. 1/2) is::

    b(t) = F(t) - 2 F(t - tau) + F(t - 2 tau)

so any object that can evaluate ``F`` can estimate burstiness.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.errors import InvalidParameterError, require_tau

__all__ = [
    "CumulativeCurve",
    "StaircaseCurve",
    "corners_from_timestamps",
    "staircase_area_between",
    "burstiness_from_curve",
]

#: Bytes charged per stored corner point / line-segment coefficient.  Space
#: accounting matches the paper's convention of counting stored coordinates.
BYTES_PER_FLOAT = 8


@runtime_checkable
class CumulativeCurve(Protocol):
    """Anything that can evaluate (an estimate of) ``F(t)``.

    ``value_many`` must equal a ``value`` loop bit for bit: the breakpoint
    queries in :mod:`repro.core.queries` read a curve only through it.
    """

    def value(self, t: float) -> float:
        """Return (an estimate of) the cumulative frequency at time ``t``."""
        ...

    def value_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over an array of query times."""
        ...

    def size_in_bytes(self) -> int:
        """Return the storage footprint of the representation."""
        ...


def burstiness_from_curve(
    curve: CumulativeCurve, t: float, tau: float
) -> float:
    """Burstiness ``b(t) = F(t) - 2 F(t-tau) + F(t-2tau)`` from any curve."""
    require_tau(tau)
    return (
        curve.value(t) - 2.0 * curve.value(t - tau) + curve.value(t - 2 * tau)
    )


def corners_from_timestamps(
    timestamps: Iterable[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Extract left-upper corner points from sorted occurrence timestamps.

    Returns ``(xs, ys)`` with ``xs`` strictly increasing and ``ys`` the
    cumulative count *after* the occurrences at each distinct timestamp
    (so ``F(t) = ys[i]`` for ``xs[i] <= t < xs[i + 1]`` and ``F(t) = 0``
    before ``xs[0]``).
    """
    ts = np.asarray(list(timestamps), dtype=np.float64)
    if ts.size == 0:
        return np.empty(0), np.empty(0)
    if np.any(np.diff(ts) < 0):
        raise InvalidParameterError("timestamps must be sorted")
    xs, counts = np.unique(ts, return_counts=True)
    ys = np.cumsum(counts).astype(np.float64)
    return xs, ys


class StaircaseCurve:
    """A non-decreasing staircase curve defined by its corner points.

    ``value(t)`` is the ``y`` of the last corner at or before ``t`` and
    ``0`` before the first corner — exactly the semantics of a cumulative
    frequency curve.
    """

    def __init__(
        self, xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray
    ) -> None:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise InvalidParameterError("xs and ys must be 1-d of equal size")
        if xs.size >= 2:
            if (xs[1:] <= xs[:-1]).any():
                raise InvalidParameterError("corner xs must strictly increase")
            if (ys[1:] < ys[:-1]).any():
                raise InvalidParameterError("corner ys must be non-decreasing")
        self._xs = xs
        self._ys = ys
        # Level 0.0 before the first corner, then one level per corner.
        self._levels = np.concatenate(([0.0], ys))

    @classmethod
    def from_timestamps(cls, timestamps: Iterable[float]) -> "StaircaseCurve":
        """Build the exact cumulative-frequency curve of a timestamp list."""
        xs, ys = corners_from_timestamps(timestamps)
        return cls(xs, ys)

    # ------------------------------------------------------------------
    @property
    def xs(self) -> np.ndarray:
        """Corner abscissae (strictly increasing)."""
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Corner ordinates (non-decreasing cumulative counts)."""
        return self._ys

    @property
    def n_corners(self) -> int:
        """Number of corner points (the paper's ``n = |F(t)|``)."""
        return int(self._xs.size)

    def __len__(self) -> int:
        return self.n_corners

    def value(self, t: float) -> float:
        """``F(t)``: cumulative value at time ``t`` (0 before the curve)."""
        idx = bisect.bisect_right(self._xs, t) - 1  # type: ignore[arg-type]
        if idx < 0:
            return 0.0
        return float(self._ys[idx])

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` over an array of query times."""
        ts = np.asarray(ts, dtype=np.float64)
        return self._levels[np.searchsorted(self._xs, ts, side="right")]

    value_many = values

    def burstiness(self, t: float, tau: float) -> float:
        """``b(t)`` computed from this curve (exact if the curve is exact)."""
        return burstiness_from_curve(self, t, tau)

    def size_in_bytes(self) -> int:
        """Two floats per corner point."""
        return 2 * BYTES_PER_FLOAT * self.n_corners

    def total(self) -> float:
        """The final cumulative value (0 for an empty curve)."""
        return float(self._ys[-1]) if self._ys.size else 0.0


def staircase_area_between(
    exact: StaircaseCurve, approx: CumulativeCurve, t_end: float | None = None
) -> float:
    """Area ``integral (F(t) - F~(t)) dt`` between an exact staircase and an
    approximation, integrated from the exact curve's first corner to
    ``t_end`` (default: the exact curve's last corner).

    The integral is computed by splitting at every exact corner; within a
    span the exact curve is constant, so each term is
    ``(span length) * (F - F~ at span start)`` provided the approximation is
    also piecewise constant between exact corners (true for staircase
    approximations whose corners are a subset of the exact corners, i.e.
    PBE-1).  For piecewise-linear approximations the trapezoid of the two
    endpoint differences is used.
    """
    if exact.n_corners == 0:
        return 0.0
    xs = exact.xs
    ys = exact.ys
    end = float(xs[-1]) if t_end is None else float(t_end)
    area = 0.0
    for i in range(len(xs)):
        left = float(xs[i])
        right = float(xs[i + 1]) if i + 1 < len(xs) else end
        if right <= left:
            continue
        width = right - left
        exact_level = float(ys[i])
        diff_left = exact_level - approx.value(left)
        # Sample just inside the right edge: piecewise-linear approximations
        # change within the span, staircases do not.
        diff_right = exact_level - approx.value(np.nextafter(right, left))
        area += 0.5 * (diff_left + diff_right) * width
    return area
