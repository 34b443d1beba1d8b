"""Sketch validation against ground truth.

A downstream user tuning ``eta``/``gamma`` on their own stream needs a
one-call answer to "how good is this sketch on my data?".
:func:`validate_sketch` replays a stream into an exact store, compares
the sketch's burstiness estimates on a query grid, and returns a
:class:`ValidationReport` with error statistics and the worst offenders.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from repro.baselines.exact import ExactBurstStore
from repro.core.errors import InvalidParameterError
from repro.core.metrics import global_registry
from repro.core.store import _StoreBase

__all__ = ["ValidationReport", "WorstQuery", "validate_sketch"]


@dataclass(frozen=True, slots=True)
class WorstQuery:
    """One of the largest-error queries found during validation."""

    event_id: int
    t: float
    estimate: float
    truth: float

    @property
    def error(self) -> float:
        """Absolute error of this query."""
        return abs(self.estimate - self.truth)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Error statistics of a sketch over a query grid."""

    n_queries: int
    mean_abs_error: float
    median_abs_error: float
    max_abs_error: float
    rmse: float
    truth_scale: float  # max |exact burstiness| seen on the grid
    worst: list[WorstQuery] = field(default_factory=list)
    #: Operational metrics snapshot taken when the run finished
    #: (process registry plus, when the sketch is a burst store, the
    #: store's own registry).
    metrics: dict | None = None

    @property
    def relative_mean_error(self) -> float:
        """Mean error relative to the largest exact burstiness."""
        if self.truth_scale == 0:
            return 0.0
        return self.mean_abs_error / self.truth_scale

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"{self.n_queries} queries: mean abs err "
            f"{self.mean_abs_error:.2f}, median {self.median_abs_error:.2f}, "
            f"max {self.max_abs_error:.2f}, rmse {self.rmse:.2f} "
            f"(truth scale {self.truth_scale:.1f}, relative mean "
            f"{self.relative_mean_error:.2%})"
        ]
        for bad in self.worst:
            lines.append(
                f"  worst: event {bad.event_id} at t={bad.t:.1f}: "
                f"estimate {bad.estimate:.1f} vs truth {bad.truth:.1f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """The full report — metrics snapshot included — as JSON."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def validate_sketch(
    sketch,
    stream: Iterable[tuple[int, float]],
    tau: float,
    event_ids: Iterable[int] | None = None,
    n_times: int = 32,
    n_worst: int = 3,
) -> ValidationReport:
    """Compare a sketch's burstiness estimates against the exact answer.

    Parameters
    ----------
    sketch:
        Anything with ``burstiness(event_id, t, tau)`` (CM-PBE, the
        dyadic index's leaf, a DirectPBEMap...).  The sketch must already
        have ingested the same stream.
    stream:
        The ground-truth stream (replayed into an exact store here).
    event_ids:
        Events to validate (default: every event in the stream).
    n_times:
        Size of the uniform time grid per event.
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be > 0, got {tau}")
    if n_times <= 0:
        raise InvalidParameterError("n_times must be > 0")
    exact = ExactBurstStore.from_stream(stream)
    ids = list(event_ids) if event_ids is not None else exact.event_ids()
    if not ids:
        raise InvalidParameterError("no events to validate")
    t_candidates = [
        exact.timestamps_of(event_id) for event_id in ids
    ]
    t_low = min(ts[0] for ts in t_candidates if ts)
    t_high = max(ts[-1] for ts in t_candidates if ts)
    grid = np.linspace(t_low + 2 * tau, t_high, n_times)

    errors: list[float] = []
    queries: list[WorstQuery] = []
    truth_scale = 0.0
    for event_id in ids:
        for t in grid:
            truth = float(exact.burstiness(event_id, float(t), tau))
            estimate = float(sketch.burstiness(event_id, float(t), tau))
            truth_scale = max(truth_scale, abs(truth))
            errors.append(abs(estimate - truth))
            queries.append(WorstQuery(event_id, float(t), estimate, truth))

    errors_arr = np.asarray(errors)
    queries.sort(key=lambda q: -q.error)
    metrics = {
        "global": global_registry().snapshot(),
        "store": (
            sketch.metrics_snapshot()
            if isinstance(sketch, _StoreBase)
            else None
        ),
    }
    return ValidationReport(
        n_queries=int(errors_arr.size),
        mean_abs_error=float(errors_arr.mean()),
        median_abs_error=float(np.median(errors_arr)),
        max_abs_error=float(errors_arr.max()),
        rmse=float(np.sqrt(np.mean(errors_arr**2))),
        truth_scale=truth_scale,
        worst=queries[:n_worst],
        metrics=metrics,
    )
