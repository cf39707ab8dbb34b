"""The shared scratchpad memory (Sec. 3.2).

"VWR2A contains a dedicated 32 KiB SPM shared by all the columns. The SPM
has a double interface: on the system side, it has the system bus width.
On the accelerator side, it has the same width as the VWRs." The wide side
moves one full line (= one VWR, 128 words) per cycle and is line-aligned —
the wide interface is built by concatenating narrower memory macros, so
unaligned wide access does not exist. The narrow side moves single 32-bit
words (used by the DMA).
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.utils.bits import to_signed32


class Scratchpad:
    """Dual-interface SPM: wide line port + narrow word port."""

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
        # Inline to_signed32: in-range ints pass on two compares, no call.
        self._data[base:base + self.line_words] = [
            v if type(v) is int and -2147483648 <= v <= 2147483647
            else ((v + 2147483648) & 4294967295) - 2147483648
            for v in values
        ]

    # -- narrow (system-side) interface -----------------------------------

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        self._events.add(Ev.SPM_WORD_READ)
        return self._data[addr]

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self._events.add(Ev.SPM_WORD_WRITE)
        self._data[addr] = to_signed32(value)

    def read_words(self, addrs) -> list:
        """Batch of narrow-port reads (one event record for the batch)."""
        if addrs and (min(addrs) < 0 or max(addrs) >= self.n_words):
            for addr in addrs:
                self._check_word(addr)
        self._events.add(Ev.SPM_WORD_READ, len(addrs))
        data = self._data
        return [data[addr] for addr in addrs]

    def read_span(self, addr: int, n_words: int) -> list:
        """``n_words`` consecutive narrow-port reads as one slice copy."""
        self._check_span(addr, n_words)
        self._events.add(Ev.SPM_WORD_READ, n_words)
        return self._data[addr:addr + n_words]

    def write_span(self, addr: int, words) -> None:
        """Consecutive narrow-port writes of storage words (one slice).

        For copies out of another memory (the DMA): SRAM and SPM only
        ever hold int32, so the words are stored without a re-wrap.
        """
        n_words = len(words)
        self._check_span(addr, n_words)
        self._events.add(Ev.SPM_WORD_WRITE, n_words)
        self._data[addr:addr + n_words] = words

    def write_words(self, addr: int, values) -> None:
        """Consecutive narrow-port writes of host values (wrapped)."""
        self.write_span(addr, [
            v if type(v) is int and -2147483648 <= v <= 2147483647
            else ((v + 2147483648) & 4294967295) - 2147483648
            for v in values
        ])

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

    # -- debug/test accessors (no events) ----------------------------------

    def peek_words(self, addr: int, count: int) -> list:
        if count < 0 or addr < 0 or addr + count > self.n_words:
            raise AddressError(
                f"peek of {count} words at {addr} exceeds SPM "
                f"({self.n_words} words)"
            )
        return self._data[addr:addr + count]

    def poke_words(self, addr: int, values) -> None:
        if addr < 0 or addr + len(values) > self.n_words:
            raise AddressError(
                f"poke of {len(values)} words at {addr} exceeds SPM "
                f"({self.n_words} words)"
            )
        self._data[addr:addr + len(values)] = [
            v if type(v) is int and -2147483648 <= v <= 2147483647
            else ((v + 2147483648) & 4294967295) - 2147483648
            for v in values
        ]

    def _check_span(self, addr: int, n_words: int) -> None:
        """One bounds check of ``[addr, addr + n_words)``; word by word only
        when it fails, so the error names the first bad address."""
        if n_words and (addr < 0 or addr + n_words > self.n_words):
            for word in range(addr, addr + n_words):
                self._check_word(word)

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self.n_lines:
            raise AddressError(
                f"SPM line {line} out of range [0, {self.n_lines})"
            )

    def _check_word(self, addr: int) -> None:
        if not 0 <= addr < self.n_words:
            raise AddressError(
                f"SPM word address {addr} out of range [0, {self.n_words})"
            )
