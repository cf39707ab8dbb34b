"""Kernel-mapping idioms shared by all VWR2A kernel generators.

Every generator emits through a :class:`ColumnKernelBuilder`: a
:class:`~repro.asm.builder.ProgramBuilder` (``emit``, ``label``,
``srf``, ``exit``, ``build``) for one column of an :class:`ArchParams`
geometry, plus the idioms below.

The central pattern is the paper's Table 1 loop: a two-bundle body where
every bundle carries RC work, the LCU slot carries the counter update and
the backward branch, and the MXCU slot advances the shared VWR word index —
one processed element per RC per cycle, with zero loop overhead.

The second is the scratch walker (:meth:`ColumnKernelBuilder.scratch`):
a kernel's scratch lines are all addressed through one SRF register, and
each line access carries the post-increment that moves the register to
the next access's line, so the FFT-family kernels spill and reload
intermediate vectors without a single SET_SRF bundle.
"""

from __future__ import annotations

import itertools

from repro.arch import ArchParams
from repro.asm.builder import ProgramBuilder
from repro.core.errors import ProgramError
from repro.isa.fields import Vwr
from repro.isa.lcu import LCU_NOP, addi, blt, seti
from repro.isa.lsu import LSU_NOP, ld_vwr, st_vwr
from repro.isa.mxcu import inck, setk
from repro.isa.rc import RCInstr


class ColumnKernelBuilder(ProgramBuilder):
    """A :class:`ProgramBuilder` for one column of an
    :class:`ArchParams` geometry, with VWR2A-specific loop idioms."""

    _label_counter = itertools.count()

    def __init__(self, params: ArchParams) -> None:
        super().__init__(n_rcs=params.rcs_per_column)
        self.params = params

    # -- plumbing -------------------------------------------------------------

    def fresh_label(self, hint: str = "L") -> str:
        return f"{hint}_{next(self._label_counter)}"

    def _rc_slots(self, rcs):
        """Broadcast a single RCInstr to all cells, or pass a list through."""
        if isinstance(rcs, RCInstr):
            return [rcs] * self.params.rcs_per_column
        return rcs

    # -- the Table-1 loop idioms ------------------------------------------------

    def vector_pass(
        self,
        rcs,
        positions: int = None,
        reg: int = 0,
        setup_lsu=LSU_NOP,
        setup_lcu=None,
    ) -> None:
        """Elementwise pass: one VWR word position per cycle.

        Executes ``rcs`` (an :class:`RCInstr` or a per-cell list) at word
        positions 0 .. positions-1 (default: the full slice). ``positions``
        must be even so the two-bundle body divides it exactly. The setup
        bundle's free LSU slot can carry a load/store via ``setup_lsu``.
        """
        slice_words = self.params.slice_words
        if positions is None:
            positions = slice_words
        if positions % 2 != 0 or positions <= 0:
            raise ProgramError(
                "vector_pass needs a positive even position count, "
                f"got {positions}"
            )
        slots = self._rc_slots(rcs)
        label = self.fresh_label("vp")
        # k starts at slice_words-1 so the body's first increment wraps to 0.
        self.emit(
            lcu=setup_lcu if setup_lcu is not None else seti(reg, 0),
            mxcu=setk(slice_words - 1),
            lsu=setup_lsu,
        )
        self.label(label)
        self.emit(rcs=slots, mxcu=inck(1), lcu=addi(reg, 1))
        self.emit(rcs=slots, mxcu=inck(1), lcu=blt(reg, positions // 2, label))

    def multi_pass(
        self,
        body,
        positions: int = None,
        reg: int = 0,
        setup_lsu=LSU_NOP,
    ) -> None:
        """Pass with an m-bundle body per word position.

        ``body`` is a list of ``(rcs, mxcu_instr)`` pairs executed in order
        for each position; exactly one of the ``mxcu_instr`` entries should
        advance the index (typically ``inck(1)`` on the first bundle). The
        LCU counter/branch ride on the first/last body bundles.
        """
        slice_words = self.params.slice_words
        if positions is None:
            positions = slice_words
        if positions <= 0:
            raise ProgramError(f"need positive position count, got {positions}")
        if len(body) < 2:
            raise ProgramError("multi_pass needs a body of >= 2 bundles")
        label = self.fresh_label("mp")
        self.emit(
            lcu=seti(reg, 0), mxcu=setk(slice_words - 1), lsu=setup_lsu
        )
        self.label(label)
        for index, (rcs, mxcu_instr) in enumerate(body):
            slots = self._rc_slots(rcs)
            if index == 0:
                lcu = addi(reg, 1)
            elif index == len(body) - 1:
                lcu = blt(reg, positions, label)
            else:
                lcu = LCU_NOP
            self.emit(rcs=slots, mxcu=mxcu_instr, lcu=lcu)

    def scratch(self, entry: int, base: int) -> "_Scratch":
        """Walker over the scratch lines ``base + line`` through SRF
        ``entry``; see :class:`_Scratch`."""
        return _Scratch(self, entry, base)

    def counted_loop(self, reg: int, count) -> "_CountedLoop":
        """Context manager for an outer loop (batches, stages).

        ``count`` is an int immediate or ``("srf", entry)`` for a bound held
        in the SRF. Emits a counter-init bundle on entry and the
        increment/branch bundle on exit; the body may freely use other
        registers and SRF entries.
        """
        return _CountedLoop(self, reg, count)


class _CountedLoop:
    def __init__(self, kb: ColumnKernelBuilder, reg: int, count) -> None:
        self.kb = kb
        self.reg = reg
        self.count = count
        self.label = kb.fresh_label("loop")

    def __enter__(self) -> "_CountedLoop":
        self.kb.emit(lcu=seti(self.reg, 0))
        self.kb.label(self.label)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.kb.emit(lcu=addi(self.reg, 1))
            self.kb.emit(lcu=blt(self.reg, self.count, self.label))
        return False


class _Scratch:
    """Scratch lines walked by one SRF register's post-increment chain.

    :meth:`ld` / :meth:`st` emit their LSU bundle at once. The first access
    sets the register's initial value to its line; each later access
    rebuilds the previous access's bundle with the post-increment that
    lands on its own line, and the last access keeps increment 0.
    """

    def __init__(
        self, kb: ColumnKernelBuilder, entry: int, base: int
    ) -> None:
        self.kb = kb
        self.entry = entry
        self.base = base
        #: (pc, ld_vwr or st_vwr, vwr, line) of the last access.
        self._last = None

    def ld(self, vwr: Vwr, line: int) -> None:
        """Load VWR ``vwr`` from scratch line ``line``."""
        self._access(ld_vwr, vwr, line)

    def st(self, vwr: Vwr, line: int) -> None:
        """Store VWR ``vwr`` to scratch line ``line``."""
        self._access(st_vwr, vwr, line)

    def _access(self, make, vwr: Vwr, line: int) -> None:
        if self._last is None:
            self.kb.srf(self.entry, self.base + line)
        else:
            pc, last_make, last_vwr, last_line = self._last
            self.kb.patch(
                pc, lsu=last_make(last_vwr, self.entry, inc=line - last_line)
            )
        self._last = (self.kb.emit(lsu=make(vwr, self.entry)), make, vwr, line)
