"""The narrow word port shared by the SPM and the system SRAM.

Both memories are flat lists of int32 words behind a word-granular port:
the SPM's system side (Sec. 3.2) and the SoC's SRAM (Sec. 4.1). The DMA
moves words between the two through these ports only; a gathered read
(:meth:`WordPort.gather`) checks the span its order reaches once and
reads it as one C-level gather, planned once per tuple order
(:func:`gather_plan`). A memory subclasses
:class:`WordPort`, names itself and the events one word access charges,
and may widen :meth:`WordPort._span_ok` / :meth:`WordPort._check_word`
(the SRAM adds bank power).
"""

from __future__ import annotations

from operator import itemgetter

from repro.core.errors import AddressError
from repro.utils.bits import int32_words, to_signed32
from repro.utils.memo import remember

#: ``id(order)`` -> :func:`gather_plan` of each tuple order gathered (a
#: plan holds its order, so the id stays its own while it is kept).
_GATHERS = {}


def gather_plan(order) -> tuple:
    """``(order, lo, hi, pick)`` of a gather order: its least and
    greatest offsets and ``pick``, the C-level gather of the order from
    the words at offsets ``lo .. hi``. A tuple order (the planners'
    memoized orders) is planned once; any other is planned per call."""
    plan = _GATHERS.get(id(order))
    if plan is None:
        if not order:
            plan = (order, 0, -1, lambda words: ())
        else:
            lo = min(order)
            rel = [index - lo for index in order]
            pick = itemgetter(*rel)
            if len(rel) == 1:
                # itemgetter with one index returns a bare item.
                def pick(words, one=pick):
                    return (one(words),)
            plan = (order, lo, max(order), pick)
        if type(order) is tuple:
            remember(_GATHERS, id(order), plan)
    return plan


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

    def gather(self, addr: int, order):
        """Word reads at ``addr + order[k]`` (any order, repeats allowed),
        one event record for the batch; returns the words as a sequence.

        One check of the span the order reaches (:func:`gather_plan`),
        then one C-level gather; when that span fails, the word-by-word
        check names the first bad address in ``order``.
        """
        _, lo, hi, pick = gather_plan(order)
        if order and not self._span_ok(addr + lo, hi - lo + 1):
            self._check_each([addr + index for index in order])
        self._events.add(self.READ, len(order))
        return pick(self._data[addr + lo:addr + hi + 1])

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
