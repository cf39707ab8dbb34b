"""Symbolic bundle walker: the one transfer function behind the SPM
footprint analysis and the closed-form loop planner.

VWR2A kernels are Table-1 loops: the LCU counts the trips and the LSU
post-increments SRF address registers, so which SPM words a kernel
touches, and how many trips each loop runs, is fixed by the
configuration words. This module is the one place that reads a bundle's
register effects:

* :func:`step` applies one bundle's effects on the SRF entries and LCU
  registers to symbolic values: ``("c", v)`` is the constant ``v``,
  ``("d", delta)`` is the value at the start of a loop trip plus
  ``delta``, and :data:`UNKNOWN` is data-dependent. An ``access`` hook
  sees every SPM access. The footprint walk
  (:mod:`repro.engine.conflicts`) steps constants through it from the
  program's ``srf_init``; :func:`loop_summary` steps a loop body once from
  ``("d", 0)``.
* :func:`loop_summary` is the one definition of a closed-form loop: a
  self-loop block whose BLT/BGE counter advances by a non-zero constant
  per trip against a loop-invariant bound, with no data-dependent LCU
  register. The footprint walk folds such a loop in one step; the
  compiler (:mod:`repro.engine.compiler`) solves its trip count once at
  loop entry, runs a counted loop and rebuilds the LCU registers from
  the summary.
* :func:`trip_count` is the closed-form solution of the loop branch;
  :func:`bound_expr` and :func:`trip_count_lines` emit the same formula
  as loop-entry source for the compiler.
* :class:`ProgramShape` is the one record of what a column program's
  configuration words fix under one geometry: its basic blocks
  (:func:`block_pcs`), the :class:`LoopSummary` of each closed-form
  loop, its compiled form and its SPM footprints. :func:`program_shape`
  memoizes it per ``(params, configuration words)``, so the compiler
  and the footprint walk partition and solve each program once.

Everything here is stdlib-only, like the rest of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.fields import RCSrcKind
from repro.isa.lcu import BRANCH_OPS, LCUCmp, LCUInstr, LCUOp
from repro.isa.lsu import LSUOp
from repro.isa.rc import RCOp
from repro.utils.bits import to_signed32
from repro.utils.fixed_point import wrap32
from repro.utils.memo import remember

#: A data-dependent value: an ``LD_SRF`` result or an RC write into the
#: SRF.
UNKNOWN = ("u",)

#: The trip-start value itself: a register a loop body leaves unchanged.
_SAME = ("d", 0)

#: LCU ops that end a basic block.
_TERMINATORS = frozenset(BRANCH_OPS) | {LCUOp.JUMP, LCUOp.EXIT}


def sym_add(sym, inc: int):
    """``sym`` plus a constant; a constant wraps to int32, as storage
    does."""
    tag = sym[0]
    if tag == "c":
        value = sym[1] + inc
        if not -2147483648 <= value <= 2147483647:
            value = wrap32(value)
        return ("c", value)
    if tag == "d":
        return ("d", sym[1] + inc)
    return sym


def step(bundle, srf: list, lcu: list, access=None) -> bool:
    """Apply one bundle's register effects to the symbolic ``srf`` and
    ``lcu`` lists, in place; control flow is left to the caller.

    ``access(is_line, is_write, entry, address)`` sees each SPM access,
    with the address register's value before its post-increment, and
    returns False when the access faults. Returns False when the bundle
    faults: a static SRF entry or compared LCU register out of range, or
    a faulting access.
    """
    n_srf = len(srf)
    for instr in bundle.rcs:
        if instr.op is RCOp.NOP:
            continue
        for operand in instr.operands():
            if operand.kind is RCSrcKind.SRF \
                    and not 0 <= operand.index < n_srf:
                return False
        if instr.dst.writes_srf:
            if not 0 <= instr.dst.index < n_srf:
                return False
            srf[int(instr.dst.index)] = UNKNOWN

    lsu = bundle.lsu
    shape = bundle.spm_access()
    if shape is not None:
        granularity, direction, entry, inc = shape
        is_line = granularity == "line"
        if not 0 <= entry < n_srf \
                or not (is_line or 0 <= int(lsu.data) < n_srf):
            return False
        address = srf[entry]
        if access is not None \
                and not access(is_line, direction == "write", entry, address):
            return False
        if lsu.op is LSUOp.LD_SRF:
            srf[int(lsu.data)] = UNKNOWN
        if inc:
            srf[entry] = sym_add(address, inc)
    elif lsu.op is LSUOp.SET_SRF:
        if not 0 <= int(lsu.data) < n_srf:
            return False
        srf[int(lsu.data)] = ("c", to_signed32(lsu.value))

    instr = bundle.lcu
    op = instr.op
    if op is LCUOp.SETI:
        lcu[instr.rd] = ("c", wrap32(instr.imm))
    elif op is LCUOp.ADDI:
        lcu[instr.rd] = sym_add(lcu[instr.rd], int(instr.imm))
    elif op is LCUOp.LDSRF:
        if not 0 <= int(instr.cmp) < n_srf:
            return False
        value = srf[int(instr.cmp)]
        # A trip-relative SRF value is no trip-relative LCU value.
        lcu[instr.rd] = value if value[0] != "d" else UNKNOWN
    elif op in BRANCH_OPS:
        if instr.cmp_kind is LCUCmp.REG:
            return 0 <= int(instr.cmp) < len(lcu)
        if instr.cmp_kind is LCUCmp.SRF:
            return 0 <= int(instr.cmp) < n_srf
    return True


@dataclass(frozen=True)
class LoopSummary:
    """One trip of a closed-form self-loop, walked symbolically."""

    pcs: tuple        #: the loop's bundle PCs, leader through back-branch
    branch: LCUInstr  #: the back-branch (BLT/BGE)
    srf: tuple        #: each SRF entry's symbolic value after one trip
    lcu: tuple        #: each LCU register's symbolic value after one trip
    sites: tuple      #: ``(is_line, is_write, entry, address)`` per access

    @property
    def delta(self) -> int:
        """The counter's (non-zero) per-trip increment."""
        return self.lcu[self.branch.rd][1]


def loop_summary(bundles, pcs, n_srf: int, n_lcu: int):
    """The :class:`LoopSummary` of the basic block ``pcs``, or ``None``
    when it is no closed-form loop.

    Closed-form means: the block's BLT/BGE branches back to its leader,
    its counter advances by a non-zero constant per trip against a
    loop-invariant bound, no bundle faults statically and no LCU
    register is data-dependent. So the trip count and every LCU register
    after the loop are functions of the loop-entry state.
    """
    branch = bundles[pcs[-1]].lcu
    if branch.op not in (LCUOp.BLT, LCUOp.BGE) or branch.target != pcs[0]:
        return None
    srf = [_SAME] * n_srf
    lcu = [_SAME] * n_lcu
    sites = []

    def site(*args) -> bool:
        sites.append(args)
        return True

    for pc in pcs:
        if not step(bundles[pc], srf, lcu, site):
            return None
    counter = lcu[branch.rd]
    if counter[0] != "d" or counter[1] == 0 or UNKNOWN in lcu:
        return None
    # The comparison operand must be loop-invariant.
    if branch.cmp_kind is LCUCmp.REG and lcu[int(branch.cmp)] != _SAME:
        return None
    if branch.cmp_kind is LCUCmp.SRF and srf[int(branch.cmp)] != _SAME:
        return None
    return LoopSummary(tuple(pcs), branch, tuple(srf), tuple(lcu),
                       tuple(sites))


def trip_count(op: LCUOp, delta: int, v0: int, bound: int):
    """Closed-form body-execution count of a proven self-loop.

    ``v0`` is the counter register's value at loop entry, ``bound`` the
    (loop-invariant) comparison value, ``delta`` the counter's per-trip
    increment. The body executes at least once (the branch sits at its
    end); ``None`` means the branch stays taken forever — execution is
    bounded only by the cycle budget. The closed form ignores 32-bit
    counter wrap-around; callers must not use it when
    ``v0 + trips * delta`` leaves the int32 range (the generated code
    guards this at runtime and replays the launch on the reference).
    """
    if op is LCUOp.BLT:
        if delta <= 0:
            return None if v0 + delta < bound else 1
        return max(1, -((v0 - bound) // delta))
    if delta >= 0:
        return None if v0 + delta >= bound else 1
    return max(1, (v0 - bound) // (-delta) + 1)


def bound_expr(branch: LCUInstr) -> str:
    """Source of a branch's comparison operand at loop entry."""
    if branch.cmp_kind is LCUCmp.IMM:
        return repr(int(branch.cmp))
    if branch.cmp_kind is LCUCmp.REG:
        return f"L[{int(branch.cmp)}]"
    return f"S[{int(branch.cmp)}]"


def trip_count_lines(summary: LoopSummary) -> list:
    """Source computing ``_t`` (:func:`trip_count`, trips or None) from
    ``_v0`` and ``_bnd``."""
    d = summary.delta
    if summary.branch.op is LCUOp.BLT:
        if d > 0:
            return [
                f"_t = -((_v0 - _bnd) // {d})",
                "if _t < 1: _t = 1",
            ]
        return [f"_t = 1 if _v0 + {d} >= _bnd else None"]
    if d < 0:
        return [
            f"_t = (_v0 - _bnd) // {-d} + 1",
            "if _t < 1: _t = 1",
        ]
    return [f"_t = 1 if _v0 + {d} < _bnd else None"]


def _leaders(bundles) -> set:
    leaders = {0}
    n = len(bundles)
    for pc, bundle in enumerate(bundles):
        op = bundle.lcu.op
        if op in BRANCH_OPS or op is LCUOp.JUMP:
            leaders.add(bundle.lcu.target)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif op is LCUOp.EXIT and pc + 1 < n:
            leaders.add(pc + 1)
    return leaders


def block_pcs(bundles) -> list:
    """Partition PCs into basic blocks (leader-to-terminator runs)."""
    leaders = _leaders(bundles)
    blocks = []
    current = []
    for pc in range(len(bundles)):
        if current and pc in leaders:
            blocks.append(current)
            current = []
        current.append(pc)
        if bundles[pc].lcu.op in _TERMINATORS:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


class ProgramShape:
    """Everything one column program's configuration words fix under one
    geometry, derived once and shared by the compiler and the SPM
    footprint walk."""

    __slots__ = ("params", "bundles", "words", "blocks", "loops",
                 "compiled", "footprints")

    def __init__(self, bundles: tuple, params, words) -> None:
        self.params = params
        self.bundles = bundles
        #: The configuration words, or ``None`` for an unstored program.
        self.words = words
        #: Basic blocks (:func:`block_pcs`), in leader-PC order.
        self.blocks = block_pcs(bundles)
        #: Block leader -> :class:`LoopSummary` of each closed-form loop.
        self.loops = {}
        for pcs in self.blocks:
            loop = loop_summary(bundles, pcs, params.srf_entries,
                                params.lcu_registers)
            if loop is not None:
                self.loops[pcs[0]] = loop
        #: The :class:`~repro.engine.compiler.CompiledProgram`, built by
        #: the compiler on first use.
        self.compiled = None
        #: Sorted ``srf_init`` items -> ``ColumnFootprint``
        #: (:mod:`repro.engine.conflicts`), at most
        #: :data:`~repro.utils.memo.MEMO_CAP`.
        self.footprints = {}


#: Shapes kept process-wide (at most :data:`~repro.utils.memo.MEMO_CAP`):
#: evicting a shape drops its compiled program and its footprints together.
_SHAPES = {}


def program_shape(program, params) -> ProgramShape:
    """The :class:`ProgramShape` of ``program`` under ``params``
    (memoized).

    Keyed on the configuration words the configuration memory stamps on
    a stored program (``_fingerprint``: ints hash far faster than
    instruction trees), or on the bundle tuple for a program loaded
    outside it (a direct ``Column.load`` in tests).
    """
    fingerprint = getattr(program, "_fingerprint", None)
    key = (params, fingerprint if fingerprint is not None
           else tuple(program.bundles))
    shape = _SHAPES.get(key)
    if shape is None:
        shape = remember(_SHAPES, key, ProgramShape(
            tuple(program.bundles), params, fingerprint))
    return shape
