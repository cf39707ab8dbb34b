"""VWR2A's DMA engine.

"A DMA performs the data transfers between the SPM and the system memory"
(Sec. 3.2) through VWR2A's AHB master port (Sec. 4.2). Transfers are
word-granular on both sides — the system side is bus-width limited and the
SPM narrow port is word-wide — which is what makes the FFT's bit-reversal
and the FIR kernel's overlapped data layout and sparse-output compaction
free to *arrange* (though every word still pays its bus and memory
energy/cycles). So a gather is an ordinary transfer with an address order
(``order=``), not a second kind of transfer. Both sides are
:class:`~repro.core.wordport.WordPort` memories; the host reaches the DMA
only through ``BiosignalSoC.dma_to_vwr2a`` / ``dma_from_vwr2a``, which add
the power check, the DMA-done flag and the CPU sleep.

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

    def to_spm(self, sram, src_word: int, dst_word: int, n_words: int,
               order=None) -> int:
        """Copy ``n_words`` from system memory into the SPM; return cycles.

        Without ``order`` the source is the span at ``src_word``; with it,
        SPM word ``dst_word + k`` gets system word ``src_word + order[k]``
        (a gather: any order, repeats allowed).
        """
        self.spm.write_span(dst_word, _read(sram, src_word, n_words, order))
        return self._transfer_cycles(n_words)

    def from_spm(self, sram, src_word: int, dst_word: int, n_words: int,
                 order=None) -> int:
        """Copy ``n_words`` from the SPM into system memory; return cycles.

        ``order`` gathers SPM words as in :meth:`to_spm` (the FIR kernel
        compacts its sparse output this way).
        """
        sram.write_span(dst_word, _read(self.spm, src_word, n_words, order))
        return self._transfer_cycles(n_words)

    # -- cost model ---------------------------------------------------------

    def _transfer_cycles(self, n_words: int) -> int:
        if n_words == 0:
            return 0
        self.events.add_many({Ev.DMA_SETUP: 1, Ev.DMA_BEAT: n_words})
        return self.setup_cycles + self.bus.burst_cycles(n_words)


def _read(memory, word: int, n_words: int, order) -> list:
    """A transfer's source words: one checked span, or one batch read at
    ``word + order[k]``; events are charged per word either way."""
    if n_words < 0:
        raise AddressError(f"negative transfer length {n_words}")
    if order is None:
        return memory.read_span(word, n_words)
    if len(order) != n_words:
        raise AddressError(
            f"gather order of {len(order)} words for a {n_words}-word "
            "transfer"
        )
    return memory.read_words([word + index for index in order])
