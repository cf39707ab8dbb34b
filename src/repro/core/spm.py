"""The shared scratchpad memory (Sec. 3.2).

"VWR2A contains a dedicated 32 KiB SPM shared by all the columns. The SPM
has a double interface: on the system side, it has the system bus width.
On the accelerator side, it has the same width as the VWRs." The wide side
moves one full line (= one VWR, 128 words) per cycle and is line-aligned —
the wide interface is built by concatenating narrower memory macros, so
unaligned wide access does not exist. The narrow side moves single 32-bit
words: it is the :class:`~repro.core.wordport.WordPort` the system SRAM
shares, which the DMA and the LD/ST_SRF word accesses use. The SPM adds
the line port, whole-memory snapshot/restore and the fault-injection
hooks.
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.core.wordport import WordPort
from repro.utils.bits import int32_words, to_signed32


class Scratchpad(WordPort):
    """Dual-interface SPM: wide line port + narrow word port."""

    NAME = "SPM"
    READ = Ev.SPM_WORD_READ
    WRITE = Ev.SPM_WORD_WRITE

    def __init__(
        self, n_lines: int, line_words: int, events: EventCounters
    ) -> None:
        self.n_lines = n_lines
        self.line_words = line_words
        self.n_words = n_lines * line_words
        self._events = events
        self._data = [0] * self.n_words

    # -- wide (accelerator-side) interface --------------------------------

    def read_line(self, line: int) -> list:
        """One-cycle wide read of a full line."""
        self._check_line(line)
        self._events.add(Ev.SPM_WIDE_READ)
        base = line * self.line_words
        return self._data[base:base + self.line_words]

    def write_line(self, line: int, values) -> None:
        """One-cycle wide write of a full line."""
        self._check_line(line)
        if len(values) != self.line_words:
            raise AddressError(
                f"wide write of {len(values)} words; lines hold "
                f"{self.line_words}"
            )
        self._events.add(Ev.SPM_WIDE_WRITE)
        base = line * self.line_words
        self._data[base:base + self.line_words] = int32_words(values)

    # -- whole-memory state (no events) ------------------------------------

    def snapshot(self) -> list:
        """Copy of the full SPM contents (no event logging), for
        whole-memory state comparisons."""
        return list(self._data)

    def restore(self, state) -> None:
        """In-place restore of a :meth:`snapshot` (no event logging)."""
        if len(state) != self.n_words:
            raise AddressError(
                f"restore of {len(state)} words into a {self.n_words}-word "
                "SPM"
            )
        # In place: bound compiled columns hold this list.
        self._data[:] = state

    # -- fault injection (no events) ----------------------------------------
    #
    # Hooks for repro.faults: faults mutate the backing store in place, so
    # both the reference interpreter and the compiled engine's closures
    # (which capture ``_data`` directly) observe them. Injection returns
    # the displaced word so the injector can heal the cell afterwards —
    # the model for ECC scrub-on-detect. No events are recorded: an upset
    # is not architectural activity.

    def inject_bitflip(self, addr: int, bit: int) -> int:
        """Flip one bit of the word at ``addr``; returns the original word."""
        self._check_word(addr)
        if not 0 <= bit < 32:
            raise AddressError(f"bit index {bit} out of range [0, 32)")
        original = self._data[addr]
        self._data[addr] = to_signed32(original ^ (1 << bit))
        return original

    def inject_stuck(self, addr: int, value: int) -> int:
        """Force the word at ``addr`` to ``value``; returns the original.

        A stuck-at cell keeps reasserting itself: the injector re-applies
        this at every kernel-launch boundary while the fault is armed, so
        writes that land on the cell are lost again before the next
        kernel reads it.
        """
        self._check_word(addr)
        original = self._data[addr]
        self._data[addr] = to_signed32(value)
        return original

    def heal_word(self, addr: int, value: int) -> None:
        """Restore a word displaced by an injection (scrub; no events)."""
        self._check_word(addr)
        self._data[addr] = to_signed32(value)

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.n_lines:
            raise AddressError(
                f"SPM line {line} out of range [0, {self.n_lines})"
            )
