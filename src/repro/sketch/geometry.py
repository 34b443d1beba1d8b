"""Computational-geometry substrate for PBE-2.

PBE-2 (paper §III-B, Alg. 2) tracks the set of feasible line parameters
``(a, b)`` such that the line ``a t + b`` cuts through every frequency
range seen so far.  Each range ``(t_j, [lo_j, hi_j])`` contributes two
half-planes in ``(a, b)`` space::

    b >= lo_j - t_j * a        and        b <= hi_j - t_j * a

Their intersection is a convex polygon ``G_k`` (Fig. 4).  This module
implements the polygon as an explicit vertex list with Sutherland–Hodgman
half-plane clipping: each new constraint costs ``O(|polygon|)`` and the
polygon stays tiny in practice, matching the paper's ``O(1)`` amortized
update claim.

**Strip clipping.**  Every PBE-2 range contributes *both* half-planes
of one value strip ``lo <= a * t + b <= hi``, and both are linear in the
same per-vertex support value ``s_i = t * x_i + y_i``: the lower cut
violates by ``lo - s_i`` and the upper by ``s_i - hi``.  The clip has
two implementations:

- :func:`clip_strip` is the production path.  It clips against the
  whole strip in one fused pass per half-plane, sharing the ``s_i``
  evaluations and skipping a pass entirely when no vertex violates it
  (the common case: most ranges only shave the polygon on one side,
  many not at all).  PBE-2's scalar ingest calls it per range, and its
  batch ingest runs an inlined statement-for-statement copy of it.
- The classic ``clipped(HalfPlane(-t, -1, -lo)).clipped(HalfPlane(t, 1,
  hi))`` chain of :meth:`ConvexPolygon.clipped` is the test oracle.

Both use the *identical* floating-point association (IEEE sign symmetry
makes ``(-t)*x + (-1)*y - (-lo)`` bit-equal to ``lo - (t*x + y)``), so
they yield bit-identical vertices; ``tests/test_pbe2_clip_oracle.py``
holds them to that.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from repro.core.errors import InvalidParameterError

__all__ = [
    "HalfPlane",
    "ConvexPolygon",
    "clip_strip",
    "strip_parallelogram",
]

_EPS = 1e-9
_INF = float("inf")


class HalfPlane:
    """The half-plane ``coef_a * x + coef_b * y <= rhs``."""

    __slots__ = ("coef_a", "coef_b", "rhs")

    def __init__(self, coef_a: float, coef_b: float, rhs: float) -> None:
        if coef_a == 0.0 and coef_b == 0.0:
            raise InvalidParameterError("degenerate half-plane")
        self.coef_a = coef_a
        self.coef_b = coef_b
        self.rhs = rhs

    def contains(self, point: tuple[float, float], eps: float = _EPS) -> bool:
        """Whether ``point`` satisfies the constraint (with slack ``eps``)."""
        x, y = point
        return self.coef_a * x + self.coef_b * y <= self.rhs + eps

    def signed_violation(self, point: tuple[float, float]) -> float:
        """Positive when the point violates the constraint."""
        x, y = point
        return self.coef_a * x + self.coef_b * y - self.rhs


class ConvexPolygon:
    """A (possibly degenerate) convex region given by its vertex cycle.

    The polygon may legitimately collapse to a segment or a single point
    after many clips; it is *empty* only when no feasible point remains.
    """

    def __init__(self, vertices: Sequence[tuple[float, float]]) -> None:
        self._vertices = [(float(x), float(y)) for x, y in vertices]

    @property
    def vertices(self) -> list[tuple[float, float]]:
        """The vertex cycle (counter-clockwise by construction)."""
        return list(self._vertices)

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    def is_empty(self) -> bool:
        return not self._vertices

    def clipped(self, half_plane: HalfPlane) -> "ConvexPolygon":
        """Return the intersection of this polygon with ``half_plane``.

        Standard Sutherland–Hodgman clipping; a small tolerance keeps
        vertices that sit numerically on the boundary.
        """
        verts = self._vertices
        if not verts:
            return self
        scale = max(
            1.0,
            max(abs(half_plane.signed_violation(v)) for v in verts),
        )
        eps = _EPS * scale
        out: list[tuple[float, float]] = []
        count = len(verts)
        for i in range(count):
            p = verts[i]
            q = verts[(i + 1) % count]
            fp = half_plane.signed_violation(p)
            fq = half_plane.signed_violation(q)
            if fp <= eps:
                out.append(p)
            crosses = (fp < -eps and fq > eps) or (fp > eps and fq < -eps)
            if crosses:
                ratio = fp / (fp - fq)
                out.append(
                    (
                        p[0] + ratio * (q[0] - p[0]),
                        p[1] + ratio * (q[1] - p[1]),
                    )
                )
        return ConvexPolygon(_dedupe(out))

    def centroid(self) -> tuple[float, float]:
        """The vertex average — a feasible interior point of the region."""
        if not self._vertices:
            raise InvalidParameterError("centroid of an empty polygon")
        sx = sum(v[0] for v in self._vertices)
        sy = sum(v[1] for v in self._vertices)
        count = len(self._vertices)
        return (sx / count, sy / count)

    def contains(self, point: tuple[float, float], eps: float = 1e-7) -> bool:
        """Point-in-convex-polygon test (boundary counts as inside)."""
        verts = self._vertices
        if not verts:
            return False
        if len(verts) == 1:
            return (
                abs(point[0] - verts[0][0]) <= eps
                and abs(point[1] - verts[0][1]) <= eps
            )
        if len(verts) == 2:
            return _on_segment(point, verts[0], verts[1], eps)
        sign = 0
        for i in range(len(verts)):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % len(verts)]
            cross = (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax)
            if abs(cross) <= eps:
                continue
            current = 1 if cross > 0 else -1
            if sign == 0:
                sign = current
            elif sign != current:
                return False
        return True


def strip_parallelogram(
    t1: float,
    lo1: float,
    hi1: float,
    t2: float,
    lo2: float,
    hi2: float,
) -> ConvexPolygon:
    """Intersection of two value strips in ``(a, b)`` space.

    Strip ``j`` is ``lo_j <= a * t_j + b <= hi_j``.  With ``t1 != t2`` the
    strips are non-parallel, so the intersection is always a non-empty
    parallelogram whose corners pair one boundary of each strip.
    """
    if t1 == t2:
        raise InvalidParameterError("strips must have distinct abscissae")

    def corner(c1: float, c2: float) -> tuple[float, float]:
        # Intersection of b = c1 - a*t1 and b = c2 - a*t2.
        a = (c1 - c2) / (t2 - t1) * -1.0
        return (a, c1 - a * t1)

    corners = [
        corner(lo1, lo2),
        corner(lo1, hi2),
        corner(hi1, hi2),
        corner(hi1, lo2),
    ]
    return ConvexPolygon(_ccw_order(corners))


def clip_strip(
    vx: list[float],
    vy: list[float],
    t: float,
    lo: float,
    hi: float,
) -> tuple[list[float], list[float]]:
    """Clip the polygon ``(vx, vy)`` against the strip ``lo <= a*t+b <= hi``.

    The production fast path of PBE-2 ingestion: one fused pass over the
    vertex cycle for both half-planes of a range, bit-identical to the
    classic two-`clipped` chain (see the module docstring).  Returns the
    new vertex cycle as parallel coordinate lists — possibly the *same*
    list objects when nothing was cut, so callers must treat the result
    as immutable.  An empty pair means the strip killed the polygon.
    """
    if not vx:
        return vx, vy
    E = _EPS
    inf = _INF
    ab = abs
    s = [t * x + y for x, y in zip(vx, vy)]
    q = sorted(s)
    smin = q[0]
    smax = q[-1]
    # Lower cut: violation lo - s_i, maximal at s = smin.  The scale for
    # the boundary tolerance is the largest |violation|, attained at an
    # extreme of s because the violation is monotone in s.  ``lo <= smin``
    # short-circuits before computing the scale: the violation is then
    # non-positive while eps is strictly positive, so the full test could
    # not fire.  (``sorted`` ends stand in for min/max: identical values,
    # one C pass; the extremes only feed tolerances and comparisons,
    # never emitted coordinates.)  The dedupe of :func:`_dedupe` is
    # fused into the emission loops (compare each candidate against the
    # last emitted vertex — seeded with +inf so the first emission always
    # passes — with the cyclic pop at the end); each loop walks the edge
    # cycle via an iterator chained with the saved first vertex, carrying
    # the head violation ``fp`` so every f-value is computed exactly once.
    if lo > smin:
        eps = E * max(1.0, ab(lo - smin), ab(lo - smax))
        if lo - smin > eps:
            neps = -eps
            ox: list[float] = []
            oy: list[float] = []
            os_: list[float] = []
            oxa = ox.append
            oya = oy.append
            osa = os_.append
            lastx = lasty = inf
            it = zip(vx, vy, s)
            head = next(it)
            x0, y0, s0 = head
            fp = lo - s0
            for x1, y1, s1 in chain(it, (head,)):
                fq = lo - s1
                if fp <= eps:
                    if ab(x0 - lastx) > E or ab(y0 - lasty) > E:
                        oxa(x0)
                        oya(y0)
                        osa(s0)
                        lastx = x0
                        lasty = y0
                    if fp < neps and fq > eps:
                        ratio = fp / (fp - fq)
                        x = x0 + ratio * (x1 - x0)
                        y = y0 + ratio * (y1 - y0)
                        if ab(x - lastx) > E or ab(y - lasty) > E:
                            oxa(x)
                            oya(y)
                            osa(t * x + y)
                            lastx = x
                            lasty = y
                elif fq < neps:
                    ratio = fp / (fp - fq)
                    x = x0 + ratio * (x1 - x0)
                    y = y0 + ratio * (y1 - y0)
                    if ab(x - lastx) > E or ab(y - lasty) > E:
                        oxa(x)
                        oya(y)
                        osa(t * x + y)
                        lastx = x
                        lasty = y
                x0 = x1
                y0 = y1
                s0 = s1
                fp = fq
            if not ox:
                return ox, oy
            if len(ox) > 1 and ab(ox[0] - lastx) <= E and ab(
                oy[0] - lasty
            ) <= E:
                ox.pop()
                oy.pop()
                os_.pop()
            vx = ox
            vy = oy
            s = os_
            q = sorted(s)
            smin = q[0]
            smax = q[-1]
    # Upper cut: violation s_i - hi, maximal at s = smax.
    if smax <= hi:
        return vx, vy
    eps = E * max(1.0, ab(smin - hi), ab(smax - hi))
    if smax - hi <= eps:
        return vx, vy
    neps = -eps
    ox = []
    oy = []
    oxa = ox.append
    oya = oy.append
    lastx = lasty = inf
    it = zip(vx, vy, s)
    head = next(it)
    x0, y0, s0 = head
    fp = s0 - hi
    for x1, y1, s1 in chain(it, (head,)):
        fq = s1 - hi
        if fp <= eps:
            if ab(x0 - lastx) > E or ab(y0 - lasty) > E:
                oxa(x0)
                oya(y0)
                lastx = x0
                lasty = y0
            if fp < neps and fq > eps:
                ratio = fp / (fp - fq)
                x = x0 + ratio * (x1 - x0)
                y = y0 + ratio * (y1 - y0)
                if ab(x - lastx) > E or ab(y - lasty) > E:
                    oxa(x)
                    oya(y)
                    lastx = x
                    lasty = y
        elif fq < neps:
            ratio = fp / (fp - fq)
            x = x0 + ratio * (x1 - x0)
            y = y0 + ratio * (y1 - y0)
            if ab(x - lastx) > E or ab(y - lasty) > E:
                oxa(x)
                oya(y)
                lastx = x
                lasty = y
        x0 = x1
        y0 = y1
        fp = fq
    if len(ox) > 1 and ab(ox[0] - lastx) <= E and ab(
        oy[0] - lasty
    ) <= E:
        ox.pop()
        oy.pop()
    return ox, oy


def _ccw_order(
    points: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Order points counter-clockwise around their centroid."""
    import math

    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _dedupe(
    points: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Drop consecutive (cyclically) near-duplicate vertices."""
    if not points:
        return points
    out: list[tuple[float, float]] = []
    for p in points:
        if not out or abs(p[0] - out[-1][0]) > _EPS or abs(
            p[1] - out[-1][1]
        ) > _EPS:
            out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _EPS and abs(
        out[0][1] - out[-1][1]
    ) <= _EPS:
        out.pop()
    return out


def _on_segment(
    point: tuple[float, float],
    a: tuple[float, float],
    b: tuple[float, float],
    eps: float,
) -> bool:
    cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (
        point[0] - a[0]
    )
    if abs(cross) > eps * max(
        1.0, abs(b[0] - a[0]) + abs(b[1] - a[1])
    ):
        return False
    dot = (point[0] - a[0]) * (b[0] - a[0]) + (point[1] - a[1]) * (
        b[1] - a[1]
    )
    length_sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return -eps <= dot <= length_sq + eps
