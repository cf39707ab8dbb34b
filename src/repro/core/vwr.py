"""Very-wide registers (Sec. 3.2).

A VWR is a single-ported 4096-bit latch array: 128 words of 32 bits in the
paper's configuration. It has an asymmetric interface — the wide side talks
to the SPM (whole register per access) and the datapath side exposes single
words through the MXCU-controlled mux network, where each RC sees one
quarter of the width. Only the mux outputs switch on datapath reads, which
is why word reads are far cheaper than register-file reads (the energy
model reflects this).

Port discipline (enforced by the column, recorded here as events): one wide
access *or* datapath activity per cycle; a latch-based register supports a
read-early/write-late word access pair within one cycle, which Table 1 of
the paper uses (``VWRA = VWRA - VWRB``).
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.utils.bits import int32_words, to_signed32


class VeryWideRegister:
    """One VWR: flat word storage plus event logging."""

    def __init__(self, name: str, words: int, events: EventCounters) -> None:
        self.name = name
        self.n_words = words
        self._events = events
        self._data = [0] * words

    def read_word(self, index: int) -> int:
        """Datapath-side single-word read (through the mux network)."""
        self._check(index)
        self._events.add(Ev.VWR_WORD_READ)
        return self._data[index]

    def write_word(self, index: int, value: int) -> None:
        """Datapath-side single-word write at the MXCU-provided index."""
        self._check(index)
        self._events.add(Ev.VWR_WORD_WRITE)
        self._data[index] = to_signed32(value)

    def read_wide(self) -> list:
        """Wide-side read of the full register (SPM store / shuffle in)."""
        self._events.add(Ev.VWR_WIDE_READ)
        return list(self._data)

    def write_wide(self, values) -> None:
        """Wide-side write of the full register (SPM load / shuffle out)."""
        if len(values) != self.n_words:
            raise AddressError(
                f"{self.name}: wide write of {len(values)} words into a "
                f"{self.n_words}-word register"
            )
        self._events.add(Ev.VWR_WIDE_WRITE)
        # In-place update: the compiled engine's closures capture this list.
        self._data[:] = int32_words(values)

    def peek(self, index: int) -> int:
        """Debug/test access without event logging."""
        self._check(index)
        return self._data[index]

    def peek_all(self) -> list:
        return list(self._data)

    def poke(self, index: int, value: int) -> None:
        """Debug/test write without event logging."""
        self._check(index)
        self._data[index] = to_signed32(value)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.n_words:
            raise AddressError(
                f"{self.name}: word index {index} out of range "
                f"[0, {self.n_words})"
            )
