"""Layer abstraction.

A layer knows its static dimensions (constructor) and lowers one
iteration's worth of work given the dynamic dimensions (batch size and
time steps).  Lowering yields ``(invocation, count)`` pairs; a count of
``T`` means the kernel launches once per time step, which is the
paper's core heterogeneity mechanism — per-step kernels scale in
*count*, batched kernels scale in *size* (§IV-B1).

Layers only hand ``config`` on to :func:`~repro.kernels.gemm.gemm` (and
convolutions, which lower through it); with ``config=None`` their GEMMs
come out as config-free requests, bound to a config later.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator

from repro.hw.config import HardwareConfig
from repro.kernels.base import KernelInvocation

__all__ = ["Layer", "KernelStream"]

KernelStream = Iterator[tuple[KernelInvocation, int]]


class Layer(ABC):
    """One network layer, lowerable to kernels."""

    def __init__(self, name: str):
        self.name = name

    def out_steps(self, in_steps: int) -> int:
        """Time steps this layer emits given ``in_steps`` (convs shrink)."""
        return in_steps

    @abstractmethod
    def forward(
        self, batch: int, steps: int, config: HardwareConfig
    ) -> KernelStream:
        """Forward-pass kernels for a ``batch x steps`` input."""

    @abstractmethod
    def backward(
        self, batch: int, steps: int, config: HardwareConfig
    ) -> KernelStream:
        """Backward-pass kernels (``steps`` is this layer's input steps)."""

    def param_count(self) -> int:
        """Trainable parameters (drives optimizer-update kernels)."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
