"""VWR2A's DMA engine.

"A DMA performs the data transfers between the SPM and the system memory"
(Sec. 3.2) through VWR2A's AHB master port (Sec. 4.2). Transfers are
word-granular on both sides — the system side is bus-width limited and the
SPM narrow port is word-wide — which is what makes the FIR kernel's
overlapped data layout and sparse-output compaction free to *arrange*
(though every word still pays its bus and memory energy/cycles).

The cycle cost of a transfer of N words is::

    dma_setup + bus.burst_cycles(N)

where ``dma_setup`` covers the CPU programming the descriptor over the
slave port, and the bus term models AHB burst transfers (address phase per
burst + one data beat per word).
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters


class Dma:
    """Word-granular DMA between a system memory and the SPM."""

    def __init__(self, spm, bus, events: EventCounters, setup_cycles: int = 24):
        self.spm = spm
        self.bus = bus
        self.events = events
        self.setup_cycles = setup_cycles

    # -- system memory -> SPM ----------------------------------------------

    def to_spm(self, sram, src_word: int, dst_word: int, n_words: int) -> int:
        """Copy ``n_words`` from system memory into the SPM; return cycles.

        Each side checks its span once and the words move as one slice;
        events are still charged per word.
        """
        _check_length(n_words)
        self.spm.write_span(dst_word, sram.read_span(src_word, n_words))
        return self._transfer_cycles(n_words)

    def to_spm_gather(self, sram, src_words, dst_word: int) -> int:
        """Gather system-memory words (arbitrary order, repeats allowed)
        into consecutive SPM words starting at ``dst_word``.

        Uses the batch word interfaces: one event record per burst instead
        of one per word (identical counts, far less accounting overhead).
        """
        values = sram.read_words(list(src_words))
        self.spm.write_span(dst_word, values)
        return self._transfer_cycles(len(values))

    # -- SPM -> system memory ----------------------------------------------

    def from_spm(self, sram, src_word: int, dst_word: int, n_words: int) -> int:
        """Copy ``n_words`` from the SPM into system memory; return cycles."""
        _check_length(n_words)
        sram.write_span(dst_word, self.spm.read_span(src_word, n_words))
        return self._transfer_cycles(n_words)

    def from_spm_gather(self, sram, src_words, dst_word: int) -> int:
        """Gather SPM words (arbitrary order — used to compact the FIR
        kernel's sparse output) into consecutive system-memory words."""
        values = self.spm.read_words(list(src_words))
        sram.write_span(dst_word, values)
        return self._transfer_cycles(len(values))

    # -- cost model ---------------------------------------------------------

    def _transfer_cycles(self, n_words: int) -> int:
        if n_words == 0:
            return 0
        self.events.add_many({Ev.DMA_SETUP: 1, Ev.DMA_BEAT: n_words})
        return self.setup_cycles + self.bus.burst_cycles(n_words)


def _check_length(n_words: int) -> None:
    if n_words < 0:
        raise AddressError(f"negative transfer length {n_words}")
