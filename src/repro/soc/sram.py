"""The SoC's banked SRAM (Sec. 4.1).

"192 KiB of static random access memory (SRAM) (divided into six banks
that can be individually power gated)". Word-granular storage with bank
power gating: accessing a gated bank is an error (software must power it
up first), and the energy model charges leakage only for powered banks.
"""

from __future__ import annotations

from repro.arch import DEFAULT_SOC_PARAMS, SocParams
from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.utils.bits import to_signed32


class BankedSram:
    """Six-bank, power-gateable system SRAM."""

    def __init__(
        self,
        params: SocParams = DEFAULT_SOC_PARAMS,
        events: EventCounters = None,
    ) -> None:
        self.params = params
        self.events = events if events is not None else EventCounters()
        self.n_words = params.sram_bytes // params.bus_word_bytes
        self.words_per_bank = self.n_words // params.sram_banks
        self._data = [0] * self.n_words
        self._bank_on = [True] * params.sram_banks

    # -- power gating --------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        self._check(addr)
        return addr // self.words_per_bank

    def set_bank_power(self, bank: int, powered: bool) -> None:
        if not 0 <= bank < self.params.sram_banks:
            raise AddressError(f"no SRAM bank {bank}")
        self._bank_on[bank] = powered

    # -- word access -----------------------------------------------------------

    def read_word(self, addr: int) -> int:
        self._check_powered(addr)
        self.events.add(Ev.SRAM_READ)
        return self._data[addr]

    def write_word(self, addr: int, value: int) -> None:
        self._check_powered(addr)
        self.events.add(Ev.SRAM_WRITE)
        self._data[addr] = to_signed32(value)

    def read_words(self, addrs) -> list:
        """Batch of word reads (one event record for the whole batch)."""
        if addrs:
            # One check of the spanned banks; word by word only when it
            # fails, so the error names the first bad address.
            lo, hi = min(addrs), max(addrs)
            if not self._span_ok(lo, hi - lo + 1):
                self._check_each(addrs)
        self.events.add(Ev.SRAM_READ, len(addrs))
        data = self._data
        return [data[addr] for addr in addrs]

    def read_span(self, addr: int, n_words: int) -> list:
        """``n_words`` consecutive word reads as one checked slice copy."""
        if not self._span_ok(addr, n_words):
            self._check_each(range(addr, addr + n_words))
        self.events.add(Ev.SRAM_READ, n_words)
        return self._data[addr:addr + n_words]

    def write_span(self, addr: int, words) -> None:
        """Consecutive word writes of storage words, as one slice copy.

        For copies out of another memory (the DMA): SPM and SRAM only
        ever hold int32, so the words are stored without a re-wrap.
        """
        n_words = len(words)
        if not self._span_ok(addr, n_words):
            self._check_each(range(addr, addr + n_words))
        self.events.add(Ev.SRAM_WRITE, n_words)
        self._data[addr:addr + n_words] = words

    def write_words(self, addr: int, values) -> None:
        """Consecutive word writes of host values (wrapped to int32)."""
        # Inline to_signed32: in-range ints pass on two compares, no call.
        self.write_span(addr, [
            v if type(v) is int and -2147483648 <= v <= 2147483647
            else ((v + 2147483648) & 4294967295) - 2147483648
            for v in values
        ])

    # -- debug/test accessors (no events) ----------------------------------------

    def peek_words(self, addr: int, count: int) -> list:
        self._check(addr)
        if addr + count > self.n_words:
            raise AddressError(
                f"peek of {count} words at {addr} exceeds SRAM"
            )
        return self._data[addr:addr + count]

    def poke_words(self, addr: int, values) -> None:
        self._check(addr)
        if addr + len(values) > self.n_words:
            raise AddressError(
                f"poke of {len(values)} words at {addr} exceeds SRAM"
            )
        self._data[addr:addr + len(values)] = [
            v if type(v) is int and -2147483648 <= v <= 2147483647
            else ((v + 2147483648) & 4294967295) - 2147483648
            for v in values
        ]

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.n_words:
            raise AddressError(
                f"SRAM word address {addr} out of range [0, {self.n_words})"
            )

    def _span_ok(self, addr: int, n_words: int) -> bool:
        """One check of ``[addr, addr + n_words)``: bounds and bank power."""
        if n_words <= 0:
            return True
        last = addr + n_words - 1
        wpb = self.words_per_bank
        return addr >= 0 and last < self.n_words \
            and all(self._bank_on[addr // wpb:last // wpb + 1])

    def _check_each(self, addrs) -> None:
        """Word-by-word check: the error names the first bad address."""
        for addr in addrs:
            self._check_powered(addr)

    def _check_powered(self, addr: int) -> None:
        self._check(addr)
        bank = addr // self.words_per_bank
        if not self._bank_on[bank]:
            raise AddressError(
                f"SRAM bank {bank} is power-gated; address {addr} is "
                "inaccessible until the bank is powered up"
            )
