"""One column of the reconfigurable array.

A column bundles four RCs, their three VWRs, the SRF, the shuffle unit and
the three specialized slots (LCU, LSU, MXCU), all advancing in lock-step
under a shared program counter (Sec. 3.1). ``step()`` executes exactly one
cycle: the MXCU's index update is combinational (its output indexes the
VWRs within the same cycle), reads observe cycle-start state, writes commit
at cycle end, and each RC latches its result into an output register that
neighbouring RCs can read in the *next* cycle.
"""

from __future__ import annotations

from repro.arch import ArchParams
from repro.core.alu import ALU_EVENT, alu_execute
from repro.core.errors import ProgramError
from repro.core.events import Ev, EventCounters
from repro.core.shuffle import shuffle
from repro.core.spm import Scratchpad
from repro.core.srf import ScalarRegisterFile
from repro.core.vwr import VeryWideRegister
from repro.isa.fields import RCDstKind, RCSrcKind, Vwr
from repro.isa.lcu import LCUCmp, LCUOp
from repro.isa.lsu import LSUOp
from repro.isa.mxcu import NO_SRF, MXCUOp
from repro.isa.program import ColumnProgram
from repro.utils.bits import to_signed32
from repro.utils.fixed_point import wrap32


def srf_pairs(program: ColumnProgram) -> tuple:
    """``program.srf_init`` as ``(entry, value)`` pairs with each value
    wrapped to int32, the form :meth:`Column.load` writes as it is (the
    entries are range-checked when the program is stored,
    :meth:`~repro.isa.program.ColumnProgram.validate`)."""
    return tuple(
        (entry, to_signed32(value))
        for entry, value in program.srf_init.items()
    )


class Column:
    """Execution state and single-cycle semantics of one column."""

    def __init__(
        self,
        index: int,
        params: ArchParams,
        spm: Scratchpad,
        events: EventCounters,
    ) -> None:
        self.index = index
        self.params = params
        self.spm = spm
        self.events = events
        self.vwrs = {
            v: VeryWideRegister(
                f"col{index}.VWR{v.name}", params.vwr_words, events
            )
            for v in Vwr
        }
        self.srf = ScalarRegisterFile(params.srf_entries, events)
        self.rc_regs = [[0] * params.rc_registers
                        for _ in range(params.rcs_per_column)]
        self.rc_out = [0] * params.rcs_per_column
        self._rc_out_reset = (0,) * params.rcs_per_column
        self.lcu_regs = [0] * params.lcu_registers
        self.k = 0
        self.pc = 0
        self.done = True
        self.steps = 0
        self.program = None

    # -- kernel loading ----------------------------------------------------

    def load(self, program: ColumnProgram, srf_init: tuple) -> None:
        """Install a program (already hazard-checked by the top level)
        and its initial SRF, ``srf_init`` in the form the launch record
        keeps (:func:`srf_pairs`): written as it is, with no check or
        wrap per entry."""
        self.program = program
        self.pc = 0
        self.k = 0
        self.done = False
        self.steps = 0
        # In-place reset: the compiled engine's closures capture this list.
        self.rc_out[:] = self._rc_out_reset
        data = self.srf._data
        for entry, value in srf_init:
            data[entry] = value

    # -- whole-column architectural state (no events) ----------------------

    def state_snapshot(self) -> dict:
        """Copy of all architectural state (registers, VWRs, PC, index).

        Paired with :meth:`state_restore`; used by the compiled engine to
        rewind an aborted launch before replaying it cycle-by-cycle on the
        reference interpreter (docs/engine.md).
        """
        return {
            "srf": list(self.srf._data),
            "vwrs": {v: list(vwr._data) for v, vwr in self.vwrs.items()},
            "rc_regs": [list(regs) for regs in self.rc_regs],
            "rc_out": list(self.rc_out),
            "lcu_regs": list(self.lcu_regs),
            "k": self.k,
            "pc": self.pc,
            "done": self.done,
            "steps": self.steps,
        }

    def state_restore(self, state: dict) -> None:
        """In-place restore of a :meth:`state_snapshot`.

        All list updates are in place because the compiled engine's block
        closures capture the backing lists.
        """
        self.srf._data[:] = state["srf"]
        for v, words in state["vwrs"].items():
            self.vwrs[v]._data[:] = words
        for regs, saved in zip(self.rc_regs, state["rc_regs"]):
            regs[:] = saved
        self.rc_out[:] = state["rc_out"]
        self.lcu_regs[:] = state["lcu_regs"]
        self.k = state["k"]
        self.pc = state["pc"]
        self.done = state["done"]
        self.steps = state["steps"]

    # -- one cycle ---------------------------------------------------------

    def step(self) -> None:
        """Advance the column by one clock cycle."""
        if self.done:
            return
        if self.program is None:
            raise ProgramError(f"column {self.index}: no program loaded")
        if not 0 <= self.pc < len(self.program):
            raise ProgramError(
                f"column {self.index}: PC {self.pc} ran past the program "
                "without an EXIT"
            )
        bundle = self.program[self.pc]
        self.steps += 1
        self.events.add(Ev.COLUMN_CYCLE)
        # One program-memory fetch per unit per cycle (predecoded words).
        self.events.add(Ev.PM_FETCH, 3 + self.params.rcs_per_column)

        self._exec_mxcu(bundle.mxcu)
        self._exec_rcs(bundle.rcs)
        self._exec_lsu(bundle.lsu)
        self._exec_lcu(bundle.lcu)

    # -- unit semantics ----------------------------------------------------

    def _exec_mxcu(self, instr) -> None:
        if instr.op is MXCUOp.NOP:
            return
        self.events.add(Ev.MXCU_ISSUE)
        slice_mask = self.params.slice_words - 1
        if instr.op is MXCUOp.SETK:
            self.k = instr.k & slice_mask
            return
        # UPD: k = ((k + inc) & and_mask) ^ xor_mask, truncated to the
        # index register width (log2(slice_words) bits).
        if instr.srf_and != NO_SRF:
            and_mask = self.srf.read(instr.srf_and)
        else:
            and_mask = instr.and_mask
        self.k = (((self.k + instr.inc) & and_mask) ^ instr.xor_mask) \
            & slice_mask

    def _exec_rcs(self, instrs) -> None:
        slice_words = self.params.slice_words
        prev_outs = list(self.rc_out)
        n_rcs = self.params.rcs_per_column
        srf_cache = {}
        results = []

        for i, instr in enumerate(instrs):
            if instr.is_nop:
                continue
            self.events.add(Ev.RC_ISSUE)
            self.events.add(ALU_EVENT[instr.op])
            values = []
            for operand in instr.operands():
                kind = operand.kind
                if kind is RCSrcKind.ZERO:
                    values.append(0)
                elif kind is RCSrcKind.IMM:
                    values.append(operand.index)
                elif kind is RCSrcKind.R0:
                    self.events.add(Ev.RC_RF_READ)
                    values.append(self.rc_regs[i][0])
                elif kind is RCSrcKind.R1:
                    self.events.add(Ev.RC_RF_READ)
                    values.append(self.rc_regs[i][1])
                elif kind is RCSrcKind.RCT:
                    values.append(prev_outs[(i - 1) % n_rcs])
                elif kind is RCSrcKind.RCB:
                    values.append(prev_outs[(i + 1) % n_rcs])
                elif kind is RCSrcKind.SRF:
                    entry = operand.index
                    if entry not in srf_cache:
                        # One broadcast read for the whole RC group; the
                        # hazard checker guarantees a single entry.
                        srf_cache[entry] = self.srf.read(entry)
                    values.append(srf_cache[entry])
                else:
                    vwr = self.vwrs[operand.vwr()]
                    values.append(
                        vwr.read_word(i * slice_words + self.k)
                    )
            a = values[0]
            b = values[1] if len(values) > 1 else 0
            results.append((i, instr, alu_execute(instr.op, a, b)))

        # Commit phase: all writes observe cycle-start reads.
        for i, instr, value in results:
            self.rc_out[i] = value
            kind = instr.dst.kind
            if kind is RCDstKind.NONE:
                continue
            if kind is RCDstKind.R0:
                self.events.add(Ev.RC_RF_WRITE)
                self.rc_regs[i][0] = value
            elif kind is RCDstKind.R1:
                self.events.add(Ev.RC_RF_WRITE)
                self.rc_regs[i][1] = value
            elif kind is RCDstKind.SRF:
                self.srf.write(instr.dst.index, value)
            else:
                vwr = self.vwrs[instr.dst.vwr()]
                vwr.write_word(i * slice_words + self.k, value)

    def _exec_lsu(self, instr) -> None:
        if instr.op is LSUOp.NOP:
            return
        self.events.add(Ev.LSU_ISSUE)
        op = instr.op
        if op is LSUOp.LD_VWR:
            line = self.srf.read(instr.addr)
            self.vwrs[instr.vwr].write_wide(self.spm.read_line(line))
            self._post_increment(instr, line)
        elif op is LSUOp.ST_VWR:
            line = self.srf.read(instr.addr)
            self.spm.write_line(line, self.vwrs[instr.vwr].read_wide())
            self._post_increment(instr, line)
        elif op is LSUOp.LD_SRF:
            addr = self.srf.read(instr.addr)
            value = self.spm.read_word(addr)
            self.srf.poke(instr.data, value)
            self.events.add(Ev.SRF_WRITE)
            self._post_increment(instr, addr)
        elif op is LSUOp.ST_SRF:
            addr = self.srf.read(instr.addr)
            value = self.srf.peek(instr.data)
            self.events.add(Ev.SRF_READ)
            self.spm.write_word(addr, value)
            self._post_increment(instr, addr)
        elif op is LSUOp.SET_SRF:
            self.srf.write(instr.data, instr.value)
        elif op is LSUOp.SHUF:
            self.events.add(Ev.SHUFFLE_OP)
            result = shuffle(
                self.vwrs[Vwr.A].read_wide(),
                self.vwrs[Vwr.B].read_wide(),
                instr.mode,
                slice_words=self.params.slice_words,
            )
            self.vwrs[Vwr.C].write_wide(result)
        else:
            raise ProgramError(f"unhandled LSU op {op!r}")

    def _post_increment(self, instr, current: int) -> None:
        """Post-increment write-back of the LSU address SRF entry."""
        if instr.inc:
            self.srf.poke(instr.addr, current + instr.inc)
            self.events.add(Ev.SRF_WRITE)

    def _exec_lcu(self, instr) -> None:
        next_pc = self.pc + 1
        op = instr.op
        if op is not LCUOp.NOP:
            self.events.add(Ev.LCU_ISSUE)
        if op is LCUOp.SETI:
            self.lcu_regs[instr.rd] = wrap32(instr.imm)
        elif op is LCUOp.ADDI:
            self.lcu_regs[instr.rd] = wrap32(
                self.lcu_regs[instr.rd] + instr.imm
            )
        elif op is LCUOp.LDSRF:
            self.lcu_regs[instr.rd] = self.srf.read(instr.cmp)
        elif op is LCUOp.JUMP:
            self.events.add(Ev.LCU_BRANCH)
            next_pc = instr.target
        elif op is LCUOp.EXIT:
            self.done = True
        elif instr.is_branch:
            self.events.add(Ev.LCU_BRANCH)
            if instr.cmp_kind is LCUCmp.IMM:
                cmp_value = instr.cmp
            elif instr.cmp_kind is LCUCmp.REG:
                cmp_value = self.lcu_regs[instr.cmp]
            else:
                cmp_value = self.srf.read(instr.cmp)
            lhs = self.lcu_regs[instr.rd]
            taken = {
                LCUOp.BLT: lhs < cmp_value,
                LCUOp.BGE: lhs >= cmp_value,
                LCUOp.BEQ: lhs == cmp_value,
                LCUOp.BNE: lhs != cmp_value,
            }[op]
            if taken:
                next_pc = instr.target
        self.pc = next_pc

    # -- debug helpers -----------------------------------------------------

    def vwr_words(self, which: Vwr) -> list:
        """Test/debug view of a VWR's contents (no events)."""
        return self.vwrs[which].peek_all()
