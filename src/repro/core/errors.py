"""Simulator error types.

The simulator is strict: structural-hazard violations (single-ported SRF /
VWR over-subscription), out-of-range addresses and malformed programs raise
instead of silently mis-executing, so every kernel that ships in
``repro.kernels`` is hazard-clean by construction.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator errors."""


class ProgramError(SimulationError):
    """Malformed program: bad targets, missing EXIT, PC overrun."""


class StructuralHazardError(SimulationError):
    """A single-ported resource was requested more than once in a cycle."""

    def __init__(self, resource: str, pc: int, detail: str = "") -> None:
        message = f"structural hazard on {resource} at PC {pc}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.resource = resource
        self.pc = pc


class AddressError(SimulationError):
    """Out-of-range SPM/VWR/SRF access."""


class ConfigurationError(SimulationError):
    """Bad kernel configuration (unknown kernel, oversized program...)."""


class BrownoutError(SimulationError):
    """A power domain browned out (was forced off) mid-execution.

    Raised by :class:`repro.soc.power_domains.PowerManager` when an armed
    brownout fuse (:meth:`~repro.soc.power_domains.PowerManager.schedule_brownout`,
    the fault-injection hook of :mod:`repro.faults`) trips while time is
    being charged to the domain — i.e. in the middle of a kernel, DMA
    transfer or CPU phase that had the domain powered. The serving layer
    treats it as a detected, retryable fault (docs/robustness.md), never
    as a simulator bug.
    """

    def __init__(self, domain, cycles_in: int) -> None:
        name = getattr(domain, "value", domain)
        super().__init__(
            f"power domain {name!r} browned out {cycles_in} cycles into "
            "the current phase (injected fault; the domain is now gated)"
        )
        self.domain = domain
        self.cycles_in = cycles_in
