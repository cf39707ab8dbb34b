"""Power-domain accounting (Sec. 4.1/4.2).

"The SoC has multiple power domains that can be turned on and off during
execution to optimize energy consumption further." VWR2A "is included in
the same power domain as the other accelerators and can therefore be power
gated." The application model uses this to keep the FFT accelerator gated
during steps it cannot accelerate (the paper's preprocessing/delineation
rows show 0.0% savings precisely because the accelerator stays gated, not
because it burns idle power).

The manager tracks, per domain, how many cycles it spent powered; the
energy model multiplies those by per-domain leakage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import BrownoutError, ConfigurationError


class Domain(enum.Enum):
    CPU = "cpu"
    SRAM = "sram"
    ACCELERATORS = "accelerators"  #: FFT accelerator + VWR2A + peripherals
    AFE = "afe"                    #: analog front end (not modelled further)


@dataclass
class _DomainState:
    powered: bool = False
    on_cycles: int = 0


class PowerManager:
    """On/off state and powered-time accounting for every domain."""

    def __init__(self) -> None:
        self._domains = {domain: _DomainState() for domain in Domain}
        self._domains[Domain.CPU].powered = True
        self._domains[Domain.SRAM].powered = True
        #: Armed brownout fuse: ``[domain, cycles_remaining]`` or None.
        self._brownout = None

    def power_on(self, domain: Domain) -> None:
        self._domains[domain].powered = True

    def power_off(self, domain: Domain) -> None:
        self._domains[domain].powered = False

    def is_powered(self, domain: Domain) -> bool:
        return self._domains[domain].powered

    def require(self, domain: Domain) -> None:
        """Guard used by accelerator wrappers before running."""
        if not self._domains[domain].powered:
            raise ConfigurationError(
                f"power domain {domain.value!r} is gated; power it on "
                "before use"
            )

    def advance(self, cycles: int) -> None:
        """Advance wall-clock time; charges on-time to powered domains.

        With a brownout fuse armed (:meth:`schedule_brownout`), the fuse
        burns down by ``cycles``; when it trips, the target domain is
        gated and :class:`~repro.core.errors.BrownoutError` is raised —
        mid-kernel from the execution layer's point of view, since kernel
        and DMA phases charge their whole cycle span through one call.
        """
        if cycles < 0:
            raise ValueError(f"negative time advance {cycles}")
        for state in self._domains.values():
            if state.powered:
                state.on_cycles += cycles
        if self._brownout is not None:
            self._brownout[1] -= cycles
            if self._brownout[1] <= 0:
                domain, remaining = self._brownout
                self._brownout = None
                self.power_off(domain)
                raise BrownoutError(domain, cycles + remaining)

    # -- fault injection -----------------------------------------------------

    def schedule_brownout(self, domain: Domain, after_cycles: int) -> None:
        """Arm a brownout: ``domain`` loses power ``after_cycles`` from now.

        The fault-injection hook of :mod:`repro.faults`: the fuse trips
        inside a later :meth:`advance` call (i.e. during whatever kernel,
        DMA transfer or CPU phase is charging time when the budget runs
        out) by gating the domain and raising
        :class:`~repro.core.errors.BrownoutError`. Only one fuse can be
        armed at a time; re-arming replaces the previous fuse.
        """
        if after_cycles <= 0:
            raise ConfigurationError(
                f"brownout must be scheduled in the future, got "
                f"{after_cycles} cycles"
            )
        self._brownout = [domain, after_cycles]

    def cancel_brownout(self) -> None:
        """Disarm a scheduled brownout that has not tripped yet."""
        self._brownout = None

    @property
    def brownout_armed(self) -> bool:
        return self._brownout is not None

    def on_cycles(self, domain: Domain) -> int:
        return self._domains[domain].on_cycles
