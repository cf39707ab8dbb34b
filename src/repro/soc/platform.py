"""The full biosignal SoC (Sec. 4.1/4.2).

Wires together the Cortex-M4 model, the banked SRAM, the AHB bus, the
fixed-function FFT accelerator and VWR2A — the platform the paper
integrates VWR2A into. All components share one :class:`EventCounters`,
so a platform-level energy breakdown falls out of a single run.
"""

from __future__ import annotations

from repro.arch import (
    DEFAULT_PARAMS,
    DEFAULT_SOC_PARAMS,
    ArchParams,
    ArchSpec,
    SocParams,
)
from repro.core.cgra import Vwr2a
from repro.core.errors import ConfigurationError
from repro.core.events import EventCounters
from repro.soc.bus import AhbBus
from repro.soc.cpu import CortexM4Model
from repro.soc.fft_accel import FftAccelerator
from repro.soc.irq import InterruptController
from repro.soc.power_domains import Domain, PowerManager
from repro.soc.sram import BankedSram

#: The platform's default execution-engine selection (see docs/engine.md).
#: The single source of truth — the serving layer reads it rather than
#: mirroring the string.
DEFAULT_ENGINE = "auto"


class BiosignalSoC:
    """The MUSEIC-like platform hosting VWR2A."""

    def __init__(
        self,
        params: ArchParams = None,
        soc_params: SocParams = None,
        engine: str = DEFAULT_ENGINE,
        spec: ArchSpec = None,
    ) -> None:
        if spec is None:
            spec = ArchSpec(
                arch=params if params is not None else DEFAULT_PARAMS,
                soc=soc_params if soc_params is not None else
                DEFAULT_SOC_PARAMS,
            )
        elif (params is not None and params != spec.arch) or (
            soc_params is not None and soc_params != spec.soc
        ):
            raise ConfigurationError(
                "pass either spec= or params=/soc_params=, not disagreeing "
                "both: the spec is the single source of geometry"
            )
        self.spec = spec
        self.params = spec.arch
        self.soc_params = spec.soc
        params, soc_params = self.params, self.soc_params
        self.events = EventCounters()
        self.bus = AhbBus(soc_params, self.events)
        self.sram = BankedSram(soc_params, self.events)
        self.cpu = CortexM4Model(self.events)
        self.fft_accel = FftAccelerator(self.events)
        self.vwr2a = Vwr2a(
            params,
            events=self.events,
            bus=self.bus,
            dma_setup_cycles=soc_params.dma_setup_cycles,
            engine=engine,
            spec=spec,
        )
        self.power = PowerManager()
        self.irq = InterruptController()
        self.vwr2a.synchronizer.on_irq(
            lambda record: self.irq.raise_line("vwr2a")
        )

    # -- accelerator access with power-domain discipline ----------------------

    def with_accelerators(self):
        """Power the accelerator domain on (idempotent)."""
        self.power.power_on(Domain.ACCELERATORS)

    def without_accelerators(self):
        """Gate the accelerator domain (CPU-only phases)."""
        self.power.power_off(Domain.ACCELERATORS)

    def run_vwr2a_kernel(self, name: str, max_cycles: int = None):
        """Run a stored kernel; the CPU sleeps until the completion IRQ."""
        self.power.require(Domain.ACCELERATORS)
        result = self.vwr2a.run(name, max_cycles=max_cycles)
        total = result.total_cycles
        self.cpu.sleep(total)
        self.power.advance(total)
        self.irq.acknowledge("vwr2a")
        return result

    def run_cpu(self, cycles: int) -> int:
        """Account for a CPU-executed phase of ``cycles``."""
        charged = self.cpu.charge(cycles)
        self.power.advance(charged)
        return charged

    def dma_to_vwr2a(self, src_word: int, dst_word: int, n_words: int,
                     order=None) -> int:
        """SRAM -> SPM transfer through VWR2A's DMA; CPU sleeps meanwhile.

        ``order`` gathers: SPM word ``dst_word + k`` gets SRAM word
        ``src_word + order[k]`` (see :meth:`repro.core.dma.Dma.to_spm`).
        """
        return self._dma(self.vwr2a.dma.to_spm, src_word, dst_word,
                         n_words, order)

    def dma_from_vwr2a(self, src_word: int, dst_word: int, n_words: int,
                       order=None) -> int:
        """SPM -> SRAM transfer through VWR2A's DMA (``order`` gathers SPM
        words, as in :meth:`dma_to_vwr2a`)."""
        return self._dma(self.vwr2a.dma.from_spm, src_word, dst_word,
                         n_words, order)

    def _dma(self, transfer, src_word, dst_word, n_words, order) -> int:
        """The one DMA route: power check, the transfer, the synchronizer's
        DMA-done flag, then the CPU sleeps through the transfer's cycles."""
        self.power.require(Domain.ACCELERATORS)
        cycles = transfer(self.sram, src_word, dst_word, n_words, order)
        self.vwr2a.synchronizer.dma_finished()
        self.cpu.sleep(cycles)
        self.power.advance(cycles)
        return cycles
