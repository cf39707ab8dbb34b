"""The synchronizer (Fig. 1).

The synchronizer sequences kernel launches, observes the LCU end-of-kernel
notifications and raises the interrupt line towards the host CPU when a
kernel execution or a DMA transfer completes (Sec. 4.2). In this model it
is the bookkeeping point for kernel completions; the host platform polls or
registers a callback for the interrupt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class KernelCompletion:
    """Record of one finished kernel execution."""

    name: str
    cycles: int
    columns: tuple


class Synchronizer:
    """Tracks running kernels and signals completion interrupts."""

    def __init__(self) -> None:
        #: The most recent completion records (a long-lived platform
        #: launches without bound; older records are dropped).
        self.completions = deque(maxlen=256)
        #: Cycles of every kernel completed so far.
        self.total_kernel_cycles = 0
        self.irq_pending = False
        self._irq_callback = None

    def on_irq(self, callback) -> None:
        """Register a host callback fired on every completion."""
        self._irq_callback = callback

    def kernel_finished(self, name: str, cycles: int, columns) -> None:
        record = KernelCompletion(
            name=name, cycles=cycles, columns=tuple(columns)
        )
        self.completions.append(record)
        self.total_kernel_cycles += cycles
        self.irq_pending = True
        if self._irq_callback is not None:
            self._irq_callback(record)

    def dma_finished(self) -> None:
        self.irq_pending = True

    def acknowledge(self) -> None:
        """Host CPU clears the interrupt."""
        self.irq_pending = False
