"""Small statistics helpers used across the library.

These mirror the arithmetic the paper performs: weighted sums for
extensive statistics (Equation 1), weighted averages for ratio statistics
(throughput, IPC), geometric means for error summaries, and percentage
errors between projections and measurements.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "weighted_sum",
    "weighted_average",
    "geomean",
    "mean",
    "median",
    "percent_error",
    "segmented_fold",
    "unique_by_first_appearance",
]


def segmented_fold(
    values: np.ndarray, segment_ids: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """Left fold of every segment of ``values``'s last axis at once.

    Segment ``s`` is the rows whose ``segment_ids`` entry is ``s``; its
    result is ``((initial[..., s] + v0) + v1) + ...`` in row order.
    Pairwise sums (``np.sum``, ``reduceat``) and prefix-sum differences
    round differently, so step ``k`` adds the ``k``-th value of every
    segment that has one: the IEEE adds, in the order, of folding each
    segment alone.  Segments are ranked longest first and the values
    laid out step-major, so each step is one in-place add of two slices
    and temporaries stay O(rows + segments).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    lengths = np.bincount(segment_ids, minlength=np.shape(initial)[-1])
    by_length = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(by_length)
    rank[by_length] = np.arange(by_length.size)
    # Step k adds the live[k] longest segments' k-th values, which sit
    # at step_start[k] onwards in the step-major layout.
    live = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    step_start = np.cumsum(live) - live
    in_segment_order = np.argsort(segment_ids, kind="stable")
    sorted_ids = segment_ids[in_segment_order]
    step = np.arange(sorted_ids.size) - (np.cumsum(lengths) - lengths)[sorted_ids]
    layout = np.empty_like(in_segment_order)
    layout[step_start[step] + rank[sorted_ids]] = in_segment_order
    steps = np.asarray(values, dtype=np.float64)[..., layout]
    acc = np.asarray(initial, dtype=np.float64)[..., by_length]
    for start, count in zip(step_start.tolist(), live.tolist()):
        acc[..., :count] += steps[..., start : start + count]
    folded = np.empty_like(acc)
    folded[..., by_length] = acc
    return folded


def unique_by_first_appearance(
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` of a key column, ranked by first appearance.

    Returns ``(uniques, first, inverse)``: the distinct keys in the
    order they first occur, the row where each first occurs
    (ascending), and each row's index into ``uniques``.
    """
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return unique[order], first[order], rank[inverse.reshape(-1)]


def weighted_sum(values: Sequence[float], weights: Sequence[float]) -> float:
    """Return ``sum(w_i * v_i)`` — Equation 1 of the paper."""
    if len(values) != len(weights):
        raise ValueError(
            f"values and weights must have equal length "
            f"({len(values)} != {len(weights)})"
        )
    return float(sum(w * v for v, w in zip(values, weights)))


def weighted_average(values: Sequence[float], weights: Sequence[float]) -> float:
    """Return the weight-normalised sum, for ratio statistics.

    The paper notes that ratio statistics (throughput, IPC) must be
    normalised by the sum of all weights.
    """
    total_weight = float(sum(weights))
    if total_weight <= 0.0:
        raise ValueError("weights must sum to a positive value")
    return weighted_sum(values, weights) / total_weight


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty input instead of returning NaN."""
    items = list(values)
    if not items:
        raise ValueError("mean of an empty sequence is undefined")
    return float(sum(items)) / len(items)


def median(values: Iterable[float]) -> float:
    """Median with the usual even-length midpoint convention."""
    items = sorted(values)
    if not items:
        raise ValueError("median of an empty sequence is undefined")
    mid = len(items) // 2
    if len(items) % 2:
        return float(items[mid])
    return (items[mid - 1] + items[mid]) / 2.0


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of non-negative values.

    Zeros are nudged to a tiny epsilon so a single perfect projection does
    not collapse a whole error summary to zero — matching how error
    geomeans are conventionally reported.
    """
    items = list(values)
    if not items:
        raise ValueError("geomean of an empty sequence is undefined")
    eps = 1e-12
    total = 0.0
    for value in items:
        if value < 0.0:
            raise ValueError(f"geomean requires non-negative values, got {value}")
        total += math.log(max(value, eps))
    return math.exp(total / len(items))


def percent_error(projected: float, actual: float) -> float:
    """Absolute percentage error of ``projected`` against ``actual``."""
    if actual == 0.0:
        raise ValueError("actual value is zero; percent error undefined")
    return abs(projected - actual) / abs(actual) * 100.0
