"""Kernel parity gates: alternative kernels must be bit-identical.

The numba kernels (``pip install .[numba]`` + ``use_numba=True`` or
``REPRO_NUMBA=1``) promise to change throughput and never an answer.
This module is the gate on that promise: every compiled surface — strip
clipping and whole-sketch PBE-2 ingestion — is checked for exact
equality against the numpy path and a scalar oracle.  Those cases skip
(with a visible reason) when numba is not installed; the dedicated
``numba-parity`` CI job installs the extra so the skip can never
silently rot into zero coverage.

PBE-1 has no compiled twin: its batched refinement sweep is the one DP
path, and the always-on case below pins it against the scalar loop in
``tests/oracles/pbe1.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accel import numba_available, resolve_use_numba
from repro.core.pbe1 import approximate_staircases
from repro.core.pbe2 import PBE2
from repro.core.serialize import dump_pbe2
from repro.sketch.geometry import _clip_strip_kernel, _numba_clip_kernel
from tests.oracles.pbe1 import staircase_dp

needs_numba = pytest.mark.skipif(
    not numba_available(),
    reason=(
        "numba not installed (optional extra `.[numba]`); parity gate "
        "runs in the numba-parity CI job"
    ),
)


def _staircase_case(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 500.0, size=n))
    xs = np.unique(xs.round(1))
    ys = np.arange(1.0, xs.size + 1.0)
    return xs, ys


@needs_numba
def test_resolver_honours_kwarg_when_numba_present():
    assert resolve_use_numba(True) is True
    assert resolve_use_numba(False) is False


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("eta", [4, 9, 25])
def test_staircase_engine_matches_scalar_oracle(seed, eta):
    # Three cells of different sizes share one batched sweep; each must
    # equal the scalar DP loop bit for bit.
    cells = [
        _staircase_case(seed + 10 * k, n)
        for k, n in enumerate((120, 64, 90))
    ]
    for (xs, ys), result in zip(cells, approximate_staircases(cells, eta)):
        oracle = staircase_dp(xs, ys, eta)
        assert list(result.selected) == list(oracle.selected)
        assert result.error == oracle.error


@needs_numba
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_clip_kernel_numba_matches_interpreted(seed):
    rng = np.random.default_rng(seed)
    # A convex polygon (CCW hull of random points) and a few strips.
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=12))
    vx = np.cos(angles) * rng.uniform(1.0, 5.0)
    vy = np.sin(angles) * rng.uniform(1.0, 5.0)
    interpreted = _clip_strip_kernel
    compiled = _numba_clip_kernel()
    for t, lo, hi in [
        (0.5, -1.0, 1.0),
        (2.0, 0.0, 0.5),
        (-1.0, -3.0, 3.0),
        (0.0, -0.1, 0.1),
    ]:
        ix, iy = interpreted(vx.copy(), vy.copy(), t, lo, hi)
        cx, cy = compiled(vx.copy(), vy.copy(), t, lo, hi)
        assert list(ix) == list(cx)
        assert list(iy) == list(cy)


def _bursty_timestamps(seed: int, n: int = 3000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    quiet = rng.uniform(0.0, 1_000.0, size=n // 3)
    burst = rng.uniform(1_000.0, 1_080.0, size=n // 2)
    tail = rng.uniform(1_080.0, 2_000.0, size=n - n // 3 - n // 2)
    return np.sort(np.concatenate([quiet, burst, tail]).round(1))


@needs_numba
@pytest.mark.parametrize("seed", [0, 1])
def test_pbe2_ingest_numba_matches_numpy(seed):
    ts = _bursty_timestamps(seed)
    compiled = PBE2(gamma=10.0, unit=1.0, use_numba=True)
    plain = PBE2(gamma=10.0, unit=1.0, use_numba=False)
    compiled.extend_batch(ts)
    plain.extend_batch(ts)
    compiled.finalize()
    plain.finalize()
    assert dump_pbe2(compiled) == dump_pbe2(plain)


@needs_numba
def test_env_flag_routes_to_compiled_path(monkeypatch):
    monkeypatch.setenv("REPRO_NUMBA", "1")
    assert resolve_use_numba(None) is True
    sketch = PBE2(gamma=10.0, unit=1.0)
    assert sketch._use_compiled is True
    monkeypatch.setenv("REPRO_NUMBA", "0")
    assert resolve_use_numba(None) is False
