"""The SoC's banked SRAM (Sec. 4.1).

"192 KiB of static random access memory (SRAM) (divided into six banks
that can be individually power gated)". Word-granular storage behind the
:class:`~repro.core.wordport.WordPort` the SPM's narrow side shares, with
bank power gating added to its checks: accessing a gated bank is an error
(software must power it up first), and the energy model charges leakage
only for powered banks. Peek and poke are debug accessors and ignore bank
power.
"""

from __future__ import annotations

from repro.arch import DEFAULT_SOC_PARAMS, SocParams
from repro.core.errors import AddressError
from repro.core.events import Ev, EventCounters
from repro.core.wordport import WordPort


class BankedSram(WordPort):
    """Six-bank, power-gateable system SRAM."""

    NAME = "SRAM"
    READ = Ev.SRAM_READ
    WRITE = Ev.SRAM_WRITE

    def __init__(
        self,
        params: SocParams = DEFAULT_SOC_PARAMS,
        events: EventCounters = None,
    ) -> None:
        self.params = params
        self._events = events if events is not None else EventCounters()
        self.n_words = params.sram_bytes // params.bus_word_bytes
        self.words_per_bank = self.n_words // params.sram_banks
        self._data = [0] * self.n_words
        self._bank_on = [True] * params.sram_banks

    # -- power gating --------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        super()._check_word(addr)  # bounds only: a gated bank has a number
        return addr // self.words_per_bank

    def set_bank_power(self, bank: int, powered: bool) -> None:
        if not 0 <= bank < self.params.sram_banks:
            raise AddressError(f"no SRAM bank {bank}")
        self._bank_on[bank] = powered

    # -- checks: bounds and bank power -----------------------------------------

    def _span_ok(self, addr: int, n_words: int) -> bool:
        if n_words <= 0:
            return True
        last = addr + n_words - 1
        wpb = self.words_per_bank
        return addr >= 0 and last < self.n_words \
            and all(self._bank_on[addr // wpb:last // wpb + 1])

    def _check_word(self, addr: int) -> None:
        super()._check_word(addr)
        bank = addr // self.words_per_bank
        if not self._bank_on[bank]:
            raise AddressError(
                f"SRAM bank {bank} is power-gated; address {addr} is "
                "inaccessible until the bank is powered up"
            )
