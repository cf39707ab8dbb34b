"""Static per-bundle event deltas.

Every event :meth:`repro.core.column.Column.step` logs is determined by the
configuration word alone — data values only steer the next PC and the
datapath results, never *which* counters tick. (This is the same property
that lets the hazard checker run once at load time: "which unit touches
which resource in a bundle is fully determined by the configuration word,
never by runtime values".)

The compiled engine exploits it: this module derives, once per bundle at
compile time, the exact :class:`~repro.core.events.EventCounters` delta one
execution of the bundle produces. The executor then only counts bundle
executions and folds ``count x delta`` into the shared tally at kernel end,
instead of paying ~10 ``Counter`` updates per simulated cycle.

The enumeration below mirrors ``Column.step`` line by line; the
differential tests (``tests/test_engine_equivalence.py``) assert the fold
matches the interpreter's per-cycle logging bit for bit on every kernel.

Each compiled basic block carries the summed delta of its bundles
(:attr:`repro.engine.compiler.BlockInfo.delta`). At kernel end the
executor walks the executed blocks once, multiplying each delta by
its execution count (:meth:`repro.engine.executor.Launch.fold`,
memoized per count vector on the launch record); the columns' totals become the launch's
event delta (``RunResult.events``), the same record the reference
interpreter reports and per-kernel energy folds from
(:meth:`repro.energy.EnergyModel.fold_histogram`).
"""

from __future__ import annotations

from collections import Counter

from repro.core.alu import ALU_EVENT
from repro.core.events import Ev
from repro.isa.fields import RCDstKind, RCSrcKind
from repro.isa.lcu import BRANCH_OPS, LCUCmp, LCUOp
from repro.isa.lsu import LSUOp
from repro.isa.mxcu import NO_SRF, MXCUOp

_RC_REG_SRCS = (RCSrcKind.R0, RCSrcKind.R1)
_VWR_SRCS = (RCSrcKind.VWR_A, RCSrcKind.VWR_B, RCSrcKind.VWR_C)
_VWR_DSTS = (RCDstKind.VWR_A, RCDstKind.VWR_B, RCDstKind.VWR_C)

#: Events one LSU op logs, beyond LSU_ISSUE and the post-increment write.
_LSU_EVENTS = {
    LSUOp.LD_VWR: ((Ev.SRF_READ, 1), (Ev.SPM_WIDE_READ, 1),
                   (Ev.VWR_WIDE_WRITE, 1)),
    LSUOp.ST_VWR: ((Ev.SRF_READ, 1), (Ev.VWR_WIDE_READ, 1),
                   (Ev.SPM_WIDE_WRITE, 1)),
    LSUOp.LD_SRF: ((Ev.SRF_READ, 1), (Ev.SPM_WORD_READ, 1),
                   (Ev.SRF_WRITE, 1)),
    LSUOp.ST_SRF: ((Ev.SRF_READ, 2), (Ev.SPM_WORD_WRITE, 1)),
    LSUOp.SET_SRF: ((Ev.SRF_WRITE, 1),),
    LSUOp.SHUF: ((Ev.SHUFFLE_OP, 1), (Ev.VWR_WIDE_READ, 2),
                 (Ev.VWR_WIDE_WRITE, 1)),
}

#: LSU ops whose ``inc`` field post-increments an SRF address entry.
_LSU_POST_INC = (LSUOp.LD_VWR, LSUOp.ST_VWR, LSUOp.LD_SRF, LSUOp.ST_SRF)


def bundle_event_delta(bundle, params) -> dict:
    """The exact event counts one execution of ``bundle`` logs."""
    d = Counter()
    d[Ev.COLUMN_CYCLE] = 1
    # One program-memory fetch per unit per cycle (predecoded words).
    d[Ev.PM_FETCH] = 3 + params.rcs_per_column

    mxcu = bundle.mxcu
    if mxcu.op is not MXCUOp.NOP:
        d[Ev.MXCU_ISSUE] += 1
        if mxcu.op is MXCUOp.UPD and mxcu.srf_and != NO_SRF:
            d[Ev.SRF_READ] += 1

    # RC group: one broadcast SRF read per distinct entry per cycle.
    srf_reads = set()
    for instr in bundle.rcs:
        if instr.is_nop:
            continue
        d[Ev.RC_ISSUE] += 1
        d[ALU_EVENT[instr.op]] += 1
        for operand in instr.operands():
            kind = operand.kind
            if kind in _RC_REG_SRCS:
                d[Ev.RC_RF_READ] += 1
            elif kind is RCSrcKind.SRF:
                srf_reads.add(operand.index)
            elif kind in _VWR_SRCS:
                d[Ev.VWR_WORD_READ] += 1
        dst = instr.dst.kind
        if dst in (RCDstKind.R0, RCDstKind.R1):
            d[Ev.RC_RF_WRITE] += 1
        elif dst is RCDstKind.SRF:
            d[Ev.SRF_WRITE] += 1
        elif dst in _VWR_DSTS:
            d[Ev.VWR_WORD_WRITE] += 1
    if srf_reads:
        d[Ev.SRF_READ] += len(srf_reads)

    lsu = bundle.lsu
    if lsu.op is not LSUOp.NOP:
        d[Ev.LSU_ISSUE] += 1
        for name, count in _LSU_EVENTS[lsu.op]:
            d[name] += count
        if lsu.op in _LSU_POST_INC and lsu.inc:
            d[Ev.SRF_WRITE] += 1

    lcu = bundle.lcu
    if lcu.op is not LCUOp.NOP:
        d[Ev.LCU_ISSUE] += 1
        if lcu.op is LCUOp.LDSRF:
            d[Ev.SRF_READ] += 1
        elif lcu.op is LCUOp.JUMP:
            d[Ev.LCU_BRANCH] += 1
        elif lcu.op in BRANCH_OPS:
            d[Ev.LCU_BRANCH] += 1
            if lcu.cmp_kind is LCUCmp.SRF:
                d[Ev.SRF_READ] += 1

    return dict(d)

