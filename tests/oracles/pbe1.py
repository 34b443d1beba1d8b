"""Scalar oracle for PBE-1's staircase DP.

:func:`staircase_dp` is the refinement DP written as a plain triple loop:
for every layer and row it scans the whole feasible candidate range
``[k, j)`` instead of the bracketed one.  It uses the floating-point
association of the vectorized sweep (``(-y_i * x_j) + B_i``, then
``+ CW_j`` after the minimum) and the leftmost argmin, so on any input the
batched engine in :mod:`repro.core.pbe1` must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.pbe1 import StaircaseApproximation, _gap_cost_table, _validated


def _staircase_dp_kernel(
    xs: np.ndarray, ys: np.ndarray, cw: np.ndarray, budget: int
) -> tuple[float, np.ndarray]:
    """The refinement DP as a plain scalar loop.

    Returns the final error and the selected corner indices.  Requires
    ``3 <= n`` and ``2 <= budget < n``.
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


def staircase_dp(
    xs: np.ndarray, ys: np.ndarray, eta: int
) -> StaircaseApproximation:
    """:func:`~repro.core.pbe1.approximate_staircase` through the scalar
    kernel (the trivial cases take the same closed form)."""
    xs, ys, trivial = _validated(xs, ys, eta)
    if trivial is not None:
        return trivial
    cw = _gap_cost_table(xs, ys)
    error, selected = _staircase_dp_kernel(xs, ys, cw, min(int(eta), xs.size))
    return StaircaseApproximation(selected, float(error))
