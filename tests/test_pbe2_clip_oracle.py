"""The PBE-2 strip clip against its half-plane-chain oracle, bit for bit.

:func:`repro.sketch.geometry.clip_strip` (the production clip; PBE-2's
batch ingest runs an inlined copy of it) promises the exact vertices of
the classic two-step chain
``ConvexPolygon.clipped(HalfPlane(-t, -1, -lo)).clipped(HalfPlane(t, 1,
hi))``.  These tests hold that promise at zero tolerance:

* single clips of random convex polygons (coordinate scales 1e-3 to
  1e8; ``t`` zero, small or at Unix-epoch scale) against strips that
  miss, shave one or both sides of, touch or kill the polygon;
* whole sketches: a :class:`PBE2` whose per-range clip is swapped for
  the chain serializes exactly like default scalar and default batch
  ingest.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pbe2 as pbe2_mod
from repro.core.pbe2 import PBE2
from repro.core.serialize import dump_pbe2
from repro.sketch.geometry import ConvexPolygon, HalfPlane, _dedupe, clip_strip

settings.register_profile("clip_oracle", deadline=None, max_examples=300)
settings.load_profile("clip_oracle")

EPOCH = 1.7e9


def chain_clip(vx, vy, t, lo, hi):
    """The oracle: two Sutherland–Hodgman half-plane clips."""
    poly = ConvexPolygon(list(zip(vx, vy)))
    poly = poly.clipped(HalfPlane(-t, -1.0, -lo)).clipped(HalfPlane(t, 1.0, hi))
    verts = poly.vertices
    return [v[0] for v in verts], [v[1] for v in verts]


def _hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Counter-clockwise convex hull (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def polygons(draw):
    """A convex vertex cycle at a drawn coordinate scale.

    Consecutive vertices differ by more than the clip tolerance, as in
    every polygon PBE-2 holds (parallelogram corners and clip outputs).
    """
    scale = 10.0 ** draw(st.integers(-3, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    center = (
        draw(unit) * scale * draw(st.sampled_from([0.0, 1.0, 10.0])),
        draw(unit) * scale * draw(st.sampled_from([0.0, 1.0, 10.0])),
    )
    raw = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=12))
    points = [(center[0] + x * scale, center[1] + y * scale) for x, y in raw]
    verts = _dedupe(_hull(points))
    return [v[0] for v in verts], [v[1] for v in verts]


def slopes():
    small = st.floats(-10.0, 10.0, allow_nan=False)
    epoch = st.floats(0.0, 1e6, allow_nan=False).map(lambda d: EPOCH + d)
    return st.sampled_from([0.0]) | small | epoch


@st.composite
def strips(draw, vx, vy, t):
    """``(lo, hi)`` placed against the polygon's support range: missing
    it, shaving one or both sides, touching a vertex, or killing it."""
    s = [t * x + y for x, y in zip(vx, vy)]
    smin, smax = min(s), max(s)
    width = max(smax - smin, abs(smin) * 1e-12, 1e-9)
    anchors = st.sampled_from([smin, smax]) | st.floats(
        -0.5, 1.5, allow_nan=False
    ).map(lambda u: smin + u * width)
    a, b = draw(anchors), draw(anchors)
    return min(a, b), max(a, b)


# ----------------------------------------------------------------------
# Single clips
# ----------------------------------------------------------------------
@given(poly=polygons(), t=slopes(), data=st.data())
def test_clip_strip_equals_half_plane_chain(poly, t, data):
    vx, vy = poly
    lo, hi = data.draw(strips(vx, vy, t))
    got = clip_strip(list(vx), list(vy), t, lo, hi)
    assert got == chain_clip(vx, vy, t, lo, hi)


def test_clip_strip_equals_chain_on_fixed_cases():
    # Square at the origin: miss, shave low, shave high, shave both,
    # touch a corner, kill from below and from above.
    vx, vy = [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]
    for lo, hi in [
        (-5.0, 5.0),
        (0.5, 5.0),
        (-5.0, 0.5),
        (0.25, 0.75),
        (2.0, 2.0),
        (3.0, 4.0),
        (-4.0, -3.0),
    ]:
        assert clip_strip(vx, vy, 1.0, lo, hi) == chain_clip(
            vx, vy, 1.0, lo, hi
        )


# ----------------------------------------------------------------------
# Whole sketches
# ----------------------------------------------------------------------
@st.composite
def streams(draw):
    """Bursty sorted timestamps (duplicates likely), one third of them
    at Unix-epoch scale."""
    base = draw(st.sampled_from([0.0, 0.0, EPOCH]))
    quiet = draw(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    burst = draw(st.lists(st.integers(0, 2), max_size=80))
    gaps = quiet[: len(quiet) // 2] + burst + quiet[len(quiet) // 2 :]
    return (base + np.cumsum(gaps, dtype=np.float64)).tolist()


@settings(max_examples=90)
@given(ts=streams(), gamma=st.sampled_from([1.0, 5.0, 20.0]))
def test_chain_built_sketch_serializes_like_default_ingest(ts, gamma):
    with mock.patch.object(pbe2_mod, "clip_strip", chain_clip):
        oracle = PBE2(gamma=gamma)
        for t in ts:
            oracle.update(t)
    scalar = PBE2(gamma=gamma)
    for t in ts:
        scalar.update(t)
    batched = PBE2(gamma=gamma)
    batched.extend_batch(ts)
    expected = dump_pbe2(oracle)
    assert dump_pbe2(scalar) == expected
    assert dump_pbe2(batched) == expected
