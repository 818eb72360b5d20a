"""GEMM kernel family with rocBLAS-style macro-tile variants.

A GEMM ``C[M,N] = A[M,K] @ B[K,N]`` is served by one of several compiled
variants, each specialised for a macro-tile ``MT_m x MT_n``.  Variant
choice is size-dependent: big square tiles amortise loads best but waste
lanes on small or skinny problems, so a 64-token classifier GEMM and a
6000-token one select *different kernels* — the mechanism behind the
paper's Fig 5 (kernel sets differ across sequence lengths) and Key
Observation 3 (one kernel, different dims across iterations).

Selection is by predicted runtime on the target device (the library's
autotune ground truth); :mod:`repro.kernels.autotune` layers the "first
epoch tries everything" behaviour on top.

Selection is the only part of lowering that reads the hardware
configuration.  Lowering without one (``config=None``) yields
config-free :class:`GemmRequest` rows, and binding a plan to a config
races all nine variants of every new problem in one vectorized
:func:`race_gemms` call, remembered per config so autotune charges from
the same race.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from threading import Lock

import numpy as np

from repro.errors import KernelSelectionError
from repro.hw.config import HardwareConfig
from repro.hw.timing import WorkBatch, time_work_batch
from repro.kernels.base import FLOAT_BYTES, KernelInvocation, make_invocation

__all__ = [
    "GemmVariant",
    "GemmRequest",
    "GEMM_VARIANTS",
    "GEMM_NAMES",
    "GEMM_VARIANT_COLUMNS",
    "gemm",
    "gemm_variants",
    "build_gemm",
    "gemm_work",
    "gemm_names",
    "race_gemms",
    "select_variants",
    "candidate_times",
    "clear_gemm_caches",
]


@dataclass(frozen=True)
class GemmVariant:
    """A compiled GEMM kernel specialised for one macro-tile."""

    tile_m: int
    tile_n: int
    #: K-slice streamed through LDS per buffer swap.
    depth_u: int
    #: Fraction of peak a fully utilised tile reaches (bigger tiles
    #: have denser inner loops).
    issue_efficiency: float

    @property
    def name(self) -> str:
        return f"Cijk_Ailk_Bljk_SB_MT{self.tile_m}x{self.tile_n}x{self.depth_u}"


#: Line-granularity locality within a K-slice of both panels — shared
#: by :func:`build_gemm` and its column form :func:`gemm_work`, which
#: must agree bit for bit.
_L1_REUSE_FRACTION = 0.30

#: The variant family.  Tile sizes and efficiencies follow the usual
#: rocBLAS assembly-kernel ladder: large square tiles near peak, small
#: and skinny tiles progressively cheaper per tile but less efficient.
GEMM_VARIANTS: tuple[GemmVariant, ...] = (
    GemmVariant(tile_m=128, tile_n=128, depth_u=16, issue_efficiency=0.88),
    GemmVariant(tile_m=128, tile_n=64, depth_u=16, issue_efficiency=0.84),
    GemmVariant(tile_m=64, tile_n=128, depth_u=16, issue_efficiency=0.84),
    GemmVariant(tile_m=64, tile_n=64, depth_u=16, issue_efficiency=0.78),
    GemmVariant(tile_m=64, tile_n=32, depth_u=32, issue_efficiency=0.70),
    GemmVariant(tile_m=32, tile_n=64, depth_u=32, issue_efficiency=0.70),
    GemmVariant(tile_m=32, tile_n=32, depth_u=32, issue_efficiency=0.60),
    GemmVariant(tile_m=16, tile_n=64, depth_u=32, issue_efficiency=0.52),
    GemmVariant(tile_m=16, tile_n=16, depth_u=64, issue_efficiency=0.40),
)


@lru_cache(maxsize=65536)
def build_gemm(
    variant: GemmVariant, m: int, n: int, k: int, group: str = "gemm"
) -> KernelInvocation:
    """Materialise ``variant`` for a concrete ``M x N x K`` problem.

    Memoised: invocations are frozen values, models re-request the same
    problem every epoch, and the four nested dataclass constructions
    dominate lowering cost for recurrent networks.
    """
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    tiles_m = math.ceil(m / variant.tile_m)
    tiles_n = math.ceil(n / variant.tile_n)
    workgroups = tiles_m * tiles_n
    padded_m = tiles_m * variant.tile_m
    padded_n = tiles_n * variant.tile_n
    # Libraries compile separate exact-tile and edge-tile kernels; which
    # one dispatches depends on whether the problem divides the tile —
    # a per-sequence-length property (one source of the Fig 5 effect).
    edge_suffix = "" if (m % variant.tile_m == 0 and n % variant.tile_n == 0) else "_edge"

    # Each workgroup streams an A panel (tile_m x K) and a B panel
    # (K x tile_n) through LDS; L1 sees each panel once per workgroup.
    read_bytes = workgroups * (variant.tile_m + variant.tile_n) * k * FLOAT_BYTES
    unique_bytes = (m * k + k * n) * FLOAT_BYTES
    l2_reuse = 0.0
    if read_bytes > 0:
        l2_reuse = max(0.0, 1.0 - unique_bytes / read_bytes)

    return make_invocation(
        name=variant.name + edge_suffix,
        op="gemm",
        group=group,
        shape=(m, n, k),
        # Padded tiles execute wasted lanes: they cost time and VALU
        # instructions just like the real kernels do.
        flops=2.0 * padded_m * padded_n * k,
        work_items=workgroups * 256,
        read_bytes=read_bytes,
        write_bytes=m * n * FLOAT_BYTES,
        issue_efficiency=variant.issue_efficiency,
        l1_reuse_fraction=_L1_REUSE_FRACTION,
        l1_working_set=(variant.tile_m + variant.tile_n)
        * variant.depth_u
        * FLOAT_BYTES,
        l2_reuse_fraction=l2_reuse,
        l2_working_set=unique_bytes,
    )


def gemm_variants(m: int, n: int, k: int, group: str = "gemm") -> list[KernelInvocation]:
    """All candidate invocations for this problem (the autotune menu)."""
    return [build_gemm(variant, m, n, k, group) for variant in GEMM_VARIANTS]


#: Variant constants as columns, in :data:`GEMM_VARIANTS` order.
_TILE_M = np.array([v.tile_m for v in GEMM_VARIANTS], dtype=np.int64)
_TILE_N = np.array([v.tile_n for v in GEMM_VARIANTS], dtype=np.int64)
_DEPTH_U = np.array([v.depth_u for v in GEMM_VARIANTS], dtype=np.int64)
_ISSUE_EFFICIENCY = np.array(
    [v.issue_efficiency for v in GEMM_VARIANTS], dtype=np.float64
)


def gemm_work(
    m: np.ndarray, n: np.ndarray, k: np.ndarray, variant: np.ndarray
) -> WorkBatch:
    """Column form of :func:`build_gemm`'s work profiles.

    Row ``i`` is ``build_gemm(GEMM_VARIANTS[variant[i]], m[i], n[i],
    k[i]).work`` as :meth:`WorkBatch.from_profiles` would columnarise
    it, bit for bit: the geometry stays in int64 (exact while byte
    counts stay below 2**53, far above any modelled problem), each
    float expression keeps :func:`build_gemm`'s association order, and
    integer results convert to float64 exactly as ``from_profiles``
    converts Python ints.
    """
    tile_m = _TILE_M[variant]
    tile_n = _TILE_N[variant]
    tiles_m = -(-m // tile_m)
    tiles_n = -(-n // tile_n)
    workgroups = tiles_m * tiles_n
    read_bytes = workgroups * (tile_m + tile_n) * k * FLOAT_BYTES
    unique_bytes = (m * k + k * n) * FLOAT_BYTES
    count = workgroups.size
    return WorkBatch(
        flops=2.0 * (tiles_m * tile_m) * (tiles_n * tile_n) * k,
        work_items=(workgroups * 256).astype(np.float64),
        issue_efficiency=_ISSUE_EFFICIENCY[variant],
        workgroup_size=np.full(count, 256.0),
        read_bytes=read_bytes.astype(np.float64),
        write_bytes=(m * n * FLOAT_BYTES).astype(np.float64),
        l1_reuse_fraction=np.full(count, _L1_REUSE_FRACTION),
        l1_working_set=((tile_m + tile_n) * _DEPTH_U[variant] * FLOAT_BYTES).astype(
            np.float64
        ),
        l2_reuse_fraction=np.maximum(0.0, 1.0 - unique_bytes / read_bytes),
        l2_working_set=unique_bytes.astype(np.float64),
    )


#: The :class:`~repro.hw.timing.WorkBatch` columns of a GEMM that depend
#: on its variant.  The other four (workgroup size, write bytes, L1
#: reuse fraction and L2 working set) are fixed by ``(m, n, k)`` alone.
GEMM_VARIANT_COLUMNS: tuple[str, ...] = (
    "flops",
    "work_items",
    "issue_efficiency",
    "read_bytes",
    "l1_working_set",
    "l2_reuse_fraction",
)


def gemm_names(m: np.ndarray, n: np.ndarray, variant: np.ndarray) -> np.ndarray:
    """Kernel-name index per row: ``2 * variant + edge`` into
    :data:`GEMM_NAMES` (the edge-tile kernel dispatches whenever the
    problem does not divide the macro-tile, as in :func:`build_gemm`)."""
    edge = (m % _TILE_M[variant] != 0) | (n % _TILE_N[variant] != 0)
    return 2 * variant + edge


#: Every name a dispatched GEMM can carry, indexed by :func:`gemm_names`.
GEMM_NAMES: tuple[str, ...] = tuple(
    name for v in GEMM_VARIANTS for name in (v.name, v.name + "_edge")
)


def race_gemms(dims: np.ndarray, config: HardwareConfig) -> np.ndarray:
    """Predicted runtime of every variant on every problem.

    ``dims`` is a ``(P, 3)`` array of ``(m, n, k)`` rows; the result is
    ``(P, len(GEMM_VARIANTS))``.  All ``P x 9`` candidates are built by
    :func:`gemm_work` and timed in one
    :func:`~repro.hw.timing.time_work_batch` call, which is row-wise
    bit-identical to :func:`~repro.hw.timing.time_work`.
    """
    dims = np.asarray(dims, dtype=np.int64).reshape(-1, 3)
    variants = len(GEMM_VARIANTS)
    m, n, k = (np.repeat(dims[:, axis], variants) for axis in range(3))
    variant = np.tile(np.arange(variants), len(dims))
    seconds, _, _ = time_work_batch(gemm_work(m, n, k, variant), config)
    return seconds.reshape(len(dims), variants)


#: Raced problems retained per config before oldest-first eviction.
_MAX_RACES_PER_CONFIG = 65536

#: config -> {(m, n, k): (read-only race times, winning variant index)}.
_RACES: dict[HardwareConfig, dict[tuple[int, int, int], tuple[np.ndarray, int]]] = {}
_RACES_LOCK = Lock()


def _raced(
    problems: Sequence[tuple[int, int, int]], config: HardwareConfig
) -> list[tuple[np.ndarray, int]]:
    """Race results per problem, racing the unseen ones together.

    The process-wide memo is what autotune charges from, so a problem
    raced while binding a plan is never raced again for its autotune
    cost.  ``np.argmin`` keeps the first minimum, matching the
    reference loop's strict ``<`` on ties.  Lookups take no lock; two
    threads racing one new problem at once store equal results.
    """
    results = _RACES.get(config)
    if results is None:
        with _RACES_LOCK:
            results = _RACES.setdefault(config, {})
    found = [results.get(problem) for problem in problems]
    missing = [i for i, entry in enumerate(found) if entry is None]
    if missing:
        times = race_gemms(np.array([problems[i] for i in missing]), config)
        times.setflags(write=False)
        winners = np.argmin(times, axis=1).tolist()
        with _RACES_LOCK:
            for row, i in enumerate(missing):
                found[i] = results[problems[i]] = (times[row], winners[row])
            overflow = max(0, len(results) - _MAX_RACES_PER_CONFIG)
            for stale in list(islice(results, overflow)):
                del results[stale]
    return found


#: Dims below this pack three to an int64 key in :func:`select_variants`.
_PACK_LIMIT = 1 << 21


def select_variants(dims: np.ndarray, config: HardwareConfig) -> np.ndarray:
    """Index into :data:`GEMM_VARIANTS` of the variant dispatched for
    each ``(m, n, k)`` row of ``dims`` on ``config``."""
    if len(dims) == 0:
        return np.zeros(0, dtype=np.int64)
    if int(dims.max()) < _PACK_LIMIT:
        # One int64 key per row: a 1-D unique is ~20x faster than the
        # row-wise ``axis=0`` form.
        packed = (dims[:, 0] << 42) | (dims[:, 1] << 21) | dims[:, 2]
        _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        problems = dims[first]
    else:
        problems, inverse = np.unique(dims, axis=0, return_inverse=True)
    keys = [tuple(row) for row in problems.tolist()]
    winners = np.array([winner for _, winner in _raced(keys, config)], dtype=np.int64)
    return winners[inverse.reshape(-1)]


def candidate_times(m: int, n: int, k: int, config: HardwareConfig) -> np.ndarray:
    """Predicted runtime of every variant on this problem (one entry per
    :data:`GEMM_VARIANTS` row, read-only).

    The shared primitive behind library dispatch (:func:`gemm` takes the
    argmin) and the autotune phase (:class:`~repro.kernels.autotune.Autotuner`
    sums its pruned candidate subset): a one-problem call of the
    vectorized race, answered from the race memo when the problem was
    already raced on ``config``.  Each entry is bit-identical to
    ``time_work(build_gemm(variant, m, n, k).work, config)[0]`` —
    asserted in tests/test_plan_equivalence.py.
    """
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    return _raced([(m, n, k)], config)[0][0]


def _select(m: int, n: int, k: int, config: HardwareConfig) -> GemmVariant:
    """Pick the fastest variant for this shape on ``config``."""
    if min(m, n, k) <= 0:
        raise KernelSelectionError(f"GEMM dims must be positive, got {(m, n, k)}")
    return GEMM_VARIANTS[_raced([(m, n, k)], config)[0][1]]


def clear_gemm_caches() -> None:
    """Drop every memo in this module (for cold benchmarks)."""
    build_gemm.cache_clear()
    gemm.cache_clear()
    with _RACES_LOCK:
        _RACES.clear()


@dataclass(frozen=True, slots=True)
class GemmRequest:
    """A GEMM launch before variant selection: the problem and its
    reporting group, with no hardware configuration.

    What :func:`gemm` returns when lowering runs without a config.  A
    request is fixed by ``(group, m, n, k)`` and so is the invocation it
    binds to on any one config, which makes merging requests exactly
    as fine as merging the invocations they become.
    """

    group: str
    shape: tuple[int, int, int]

    op = "gemm"
    #: Family name: the variant (and so the kernel name) is unresolved.
    name = "gemm"


@lru_cache(maxsize=65536)
def gemm(
    m: int, n: int, k: int, config: HardwareConfig | None, group: str = "gemm"
) -> KernelInvocation | GemmRequest:
    """The invocation the library would dispatch for this GEMM.

    With ``config=None`` the result is the config-free
    :class:`GemmRequest`; :func:`repro.models.plan.bind` later picks its
    variant per config for a whole plan at once.

    Memoised on the full request: recurrent models re-request the same
    dispatch thousands of times per epoch, and even two warm cache
    lookups (selection + build) per call are measurable on the lowering
    hot path.
    """
    if config is None:
        if min(m, n, k) <= 0:
            raise KernelSelectionError(
                f"GEMM dims must be positive, got {(m, n, k)}"
            )
        return GemmRequest(group=group, shape=(m, n, k))
    return build_gemm(_select(m, n, k, config), m, n, k, group)
