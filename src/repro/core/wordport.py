"""The narrow word port shared by the SPM and the system SRAM.

Both memories are flat lists of int32 words behind a word-granular port:
the SPM's system side (Sec. 3.2) and the SoC's SRAM (Sec. 4.1). The DMA
moves words between the two through these ports only. A memory subclasses
:class:`WordPort`, names itself and the events one word access charges,
and may widen :meth:`WordPort._span_ok` / :meth:`WordPort._check_word`
(the SRAM adds bank power).
"""

from __future__ import annotations

from repro.core.errors import AddressError
from repro.utils.bits import int32_words, to_signed32


class WordPort:
    """Word, batch and span access to ``n_words`` int32 words.

    Subclasses set ``NAME`` (the memory in error messages) and
    ``READ``/``WRITE`` (the event one word access charges), and fill
    ``n_words``, ``_events`` and ``_data`` in their constructor.
    """

    NAME = READ = WRITE = None

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        self._events.add(self.READ)
        return self._data[addr]

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self._events.add(self.WRITE)
        self._data[addr] = to_signed32(value)

    def read_words(self, addrs) -> list:
        """Word reads at ``addrs`` (any order, repeats allowed), one event
        record for the batch."""
        if addrs:
            lo = min(addrs)
            if not self._span_ok(lo, max(addrs) - lo + 1):
                self._check_each(addrs)
        self._events.add(self.READ, len(addrs))
        data = self._data
        return [data[addr] for addr in addrs]

    def read_span(self, addr: int, n_words: int) -> list:
        """``n_words`` consecutive word reads as one slice copy."""
        if not self._span_ok(addr, n_words):
            self._check_each(range(addr, addr + n_words))
        self._events.add(self.READ, n_words)
        return self._data[addr:addr + n_words]

    def write_span(self, addr: int, words) -> None:
        """Consecutive word writes of storage words, as one slice copy.

        For copies out of another memory (the DMA): the SPM and the SRAM
        only ever hold int32, so the words are stored without a re-wrap.
        """
        n_words = len(words)
        if not self._span_ok(addr, n_words):
            self._check_each(range(addr, addr + n_words))
        self._events.add(self.WRITE, n_words)
        self._data[addr:addr + n_words] = words

    def write_words(self, addr: int, values) -> None:
        """Consecutive word writes of host values (wrapped to int32)."""
        self.write_span(addr, int32_words(values))

    # -- debug/test accessors (no events, bounds only) -----------------------

    def peek_words(self, addr: int, count: int) -> list:
        if count < 0 or addr < 0 or addr + count > self.n_words:
            raise AddressError(
                f"peek of {count} words at {addr} exceeds {self.NAME} "
                f"({self.n_words} words)"
            )
        return self._data[addr:addr + count]

    def poke_words(self, addr: int, values) -> None:
        if addr < 0 or addr + len(values) > self.n_words:
            raise AddressError(
                f"poke of {len(values)} words at {addr} exceeds {self.NAME} "
                f"({self.n_words} words)"
            )
        self._data[addr:addr + len(values)] = int32_words(values)

    # -- checks --------------------------------------------------------------

    def _span_ok(self, addr: int, n_words: int) -> bool:
        """One check of ``[addr, addr + n_words)``."""
        return n_words <= 0 or (addr >= 0 and addr + n_words <= self.n_words)

    def _check_each(self, addrs) -> None:
        """Word-by-word check: the error names the first bad address."""
        for addr in addrs:
            self._check_word(addr)

    def _check_word(self, addr: int) -> None:
        if not 0 <= addr < self.n_words:
            raise AddressError(
                f"{self.NAME} word address {addr} out of range "
                f"[0, {self.n_words})"
            )
