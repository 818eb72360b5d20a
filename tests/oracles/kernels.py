"""Kernel-layer references: the per-variant GEMM dispatch loop and the
per-candidate autotune loop that the vectorized race replaced."""

from __future__ import annotations

import math

from repro.hw.config import HardwareConfig
from repro.hw.timing import time_work
from repro.kernels.autotune import _TRIALS_PER_VARIANT, Autotuner, _candidate_indices
from repro.kernels.gemm import GEMM_VARIANTS, GemmVariant, build_gemm


def select_reference(m: int, n: int, k: int, config: HardwareConfig) -> GemmVariant:
    """The pre-vectorized selection loop: build and time every variant,
    keep the first strict minimum."""
    best: GemmVariant | None = None
    best_time = math.inf
    for variant in GEMM_VARIANTS:
        candidate = build_gemm(variant, m, n, k)
        elapsed, _, _ = time_work(candidate.work, config)
        if elapsed < best_time:
            best, best_time = variant, elapsed
    assert best is not None  # GEMM_VARIANTS is non-empty
    return best


def candidate_variants(m: int, n: int) -> list[GemmVariant]:
    """Variants a library would actually try for this shape.

    Derived from the shipped pruning rule so the reference and the
    vectorized autotune paths can never disagree on it.
    """
    return [GEMM_VARIANTS[index] for index in _candidate_indices(m, n)]


def charge_reference(config: HardwareConfig, m: int, n: int, k: int) -> float:
    """The scalar candidate loop: materialise and time each candidate."""
    cost = 0.0
    for variant in candidate_variants(m, n):
        candidate = build_gemm(variant, m, n, k)
        elapsed, _, _ = time_work(candidate.work, config)
        cost += elapsed * _TRIALS_PER_VARIANT
    return cost


class ReferenceAutotuner(Autotuner):
    """An :class:`Autotuner` charging through :func:`charge_reference`."""

    def _cost(self, m: int, n: int, k: int) -> float:
        return charge_reference(self._config, m, n, k)
