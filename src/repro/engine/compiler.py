"""Bundle predecoder: ColumnProgram -> one generated function.

The reference interpreter re-decodes every bundle on every cycle: enum
``is``-chains select the unit semantics, operand kinds are re-dispatched,
and ~10 ``EventCounters.add`` calls tick per column cycle. This module
performs that decode exactly once per program:

* every bundle is lowered to flat Python source whose operand fetches are
  resolved into direct list accesses (``VA[k3]``, ``S[3]``, ``R2[0]``,
  ...; the slice offsets ``k1 = k + 32``, ... are computed once after
  each ``k`` write, for the slices the block touches) and whose ALU
  semantics are inlined Python arithmetic under the **operand-range
  rule** below;
* straight-line bundle runs between branch targets form **basic
  blocks** (:func:`repro.engine.superblocks.block_pcs`), the compile
  unit;
* the program becomes **one generated function**, ``_run(limit, C)``: a
  ``while True:`` loop holding one ``if pc == <leader>:`` arm per basic
  block, in leader-PC order. An arm counts its execution into ``C``
  and its cycles into ``steps``, then transfers control: a forward
  target sets ``pc`` and falls into its later arm; a backward target (a
  loop, self-loops included) sets ``pc``, returns ``steps`` once they
  pass the cycle budget ``limit``, and continues the loop; a target past
  the program raises in place; EXIT stores ``col.pc`` and ``col.k`` and
  returns ``steps``. Every CFG lowers this way, irreducible ones
  included, and every cycle in it passes a back edge, so the budget
  check bounds every run;
* closed-form self-loops (:func:`repro.engine.superblocks.loop_summary`,
  the same definition the SPM footprint walk folds loops by) compute
  their **trip count once** at loop entry and run a counted loop with no
  per-trip branch evaluation, reconstructing the LCU registers from the
  loop's summary. Such a loop has no per-trip twin: where its counter
  would leave int32 it raises ``_CounterWrap``, and the launch replays
  on the reference. It counts its trips into its block's slot of ``C``
  and its entry into a slot after the block slots;
* each block carries the static event delta of one execution
  (:mod:`repro.engine.deltas`) — the executor folds ``delta x count`` into
  the shared tally at kernel end, multiplying (never iterating) the
  per-trip deltas of counted loops.

Operand-range rule. Every storage write path (SRF, VWR, SPM, SRAM, the
RC and LCU registers, ``state_restore``, fault injection) holds only
int32 values (host values are wrapped by ``repro.utils.bits``:
``to_signed32`` for a scalar, ``int32_words`` for every vector write),
and an immediate carries its exact value. So each operand
has a known interval, and each RC/LSU/LCU result gets the interval of
its unwrapped arithmetic. The int32 wrap is emitted only where that
interval can leave int32, and then as a **guarded wrap**
(``if not -2147483648 <= v <= 2147483647: v = <wrap>``): its common path
is two compares, while the unconditional wrap's 2**31/2**32 constants
put every result on CPython's multi-digit integer path. In practice:

* ``MOV`` of storage and ``LAND``/``LOR``/``LXOR``/``LNOT`` of int32
  operands pass through (Python's signed bitwise ops already give the
  int32 result); ``SMAX``/``SMIN`` are conditional expressions;
* ``FXPMUL``/``SMUL`` by an immediate need no wrap when the product's
  interval fits (every FIR tap); ``SADD``/``SSUB``/``SMUL``/``FXPMUL``
  of two storage operands keep the guarded wrap;
* ``SLL``, ``SRL`` and the SIMD16 ops keep their unconditional form;
* the LSU post-increment after an address guard has a proven range and
  needs no wrap; ``ADDI`` and the counted loops' register
  reconstruction use the guarded form;
* SRF and VWR commits of a result whose interval leaves int32 (an
  SRA/SMAX/SMIN on an out-of-range immediate) wrap, as the reference's
  storage does; the RC latches keep the raw value, as the reference's
  do, and a program carrying such an immediate reads its latches as
  unbounded (see ``_reg_range``).

A program compiles once per shape
(:class:`repro.engine.superblocks.ProgramShape`, memoized by ``(params,
configuration words)``, which also holds its blocks and loop summaries)
— distinct programs with identical code but different ``srf_init`` (an
FFT stage's batches) compile exactly once — and warm launches do not
compile at all: the config's launch record on the array keeps its
columns' bound programs (:class:`repro.engine.executor.Launch`).

The generated function binds the column's storage (SRF/VWR/SPM backing
lists) via default arguments at bind time (:class:`repro.engine.executor
.BoundColumn`), so the hot path performs only local-variable indexing.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import ProgramError
from repro.engine.deltas import bundle_event_delta
from repro.engine.superblocks import (
    bound_expr,
    program_shape,
    trip_count_lines,
)
from repro.isa.fields import RCDstKind, RCSrcKind
from repro.isa.lcu import BRANCH_OPS, LCUCmp, LCUOp
from repro.isa.lsu import LSUOp
from repro.isa.mxcu import NO_SRF, MXCUOp
from repro.isa.rc import RCOp
from repro.utils.bits import to_signed32
from repro.utils.fixed_point import wrap32

_CMP_SYMBOL = {
    LCUOp.BLT: "<",
    LCUOp.BGE: ">=",
    LCUOp.BEQ: "==",
    LCUOp.BNE: "!=",
}

_VWR_SRC_NAMES = {
    RCSrcKind.VWR_A: "VA",
    RCSrcKind.VWR_B: "VB",
    RCSrcKind.VWR_C: "VC",
}

_VWR_DST_NAMES = {
    RCDstKind.VWR_A: "VA",
    RCDstKind.VWR_B: "VB",
    RCDstKind.VWR_C: "VC",
}

_LSU_VWR_NAMES = {0: "VA", 1: "VB", 2: "VC"}

#: A slice-offset name (``k1``, ``k2``, ...) in a generated line.
_SLICE_NAME = re.compile(r"\bk\d+\b")


#: The int32 interval every storage cell holds (see the module docstring).
INT32 = (-2147483648, 2147483647)


def _fits(rng) -> bool:
    """True when the interval ``rng`` (``None`` = any int) lies in int32."""
    return rng is not None and INT32[0] <= rng[0] and rng[1] <= INT32[1]


def _full_wrap(expr: str) -> str:
    """Inline ``wrap32`` of ``expr`` (unconditional; multi-digit arithmetic)."""
    return f"((({expr}) + 2147483648 & 4294967295) - 2147483648)"


def _assign(target: str, expr: str, rng) -> tuple:
    """``target = wrap32(expr)`` for ``expr`` in ``rng``: a plain assignment
    when the interval fits int32, else assignment plus the guarded wrap
    (two compares on the common path). Returns ``(lines, result range)``."""
    if _fits(rng):
        return [f"{target} = {expr}"], rng
    return [
        f"{target} = {expr}",
        f"if not -2147483648 <= {target} <= 2147483647: "
        f"{target} = (({target} + 2147483648) & 4294967295) - 2147483648",
    ], INT32


def _corners(ra, rb, fn):
    """Interval of ``fn`` over two operand intervals (None = unbounded),
    for ops whose extremes over a box lie at its corners: sums, products
    and their flooring shifts, max and min."""
    if ra is None or rb is None:
        return None
    values = [fn(x, y) for x in ra for y in rb]
    return min(values), max(values)


#: RC op -> (source, exact unwrapped value); the result wraps to int32.
_WRAPPED = {
    RCOp.SADD: ("{a} + {b}", lambda x, y: x + y),
    RCOp.SSUB: ("{a} - {b}", lambda x, y: x - y),
    RCOp.SMUL: ("{a} * {b}", lambda x, y: x * y),
    RCOp.FXPMUL: ("({a} * {b}) >> 15", lambda x, y: (x * y) >> 15),
}

#: The low 32 bits of a bitwise result depend only on the operands' low
#: 32 bits, and on int32 operands Python's signed bitwise ops already
#: give the int32 result.
_BITWISE = {
    RCOp.LAND: "{a} & {b}",
    RCOp.LOR: "{a} | {b}",
    RCOp.LXOR: "{a} ^ {b}",
    RCOp.LNOT: "~{a}",
}

#: SMAX/SMIN: (comparison keeping ``a``, interval function).
_SELECT = {RCOp.SMAX: (">=", max), RCOp.SMIN: ("<=", min)}

#: Ops lowered without range typing (their result is always int32).
_FIXED = {
    RCOp.SLL: _full_wrap("({a} & 4294967295) << ({b} & 31)"),
    RCOp.SRL: _full_wrap("({a} & 4294967295) >> ({b} & 31)"),
    RCOp.SADD16: "_s16a({a}, {b})",
    RCOp.SSUB16: "_s16s({a}, {b})",
    RCOp.FXPMUL16: "_s16m({a}, {b})",
}


def _alu_lines(op: RCOp, var: str, a: tuple, b: tuple) -> tuple:
    """Lines assigning ``alu_execute(op, a, b)`` to ``var`` (repro.core.alu).

    ``a`` and ``b`` are ``(source, range)`` operands; storage reads range
    over int32, immediates are points. Returns ``(lines, result range)``;
    the range of SRA/SMAX/SMIN may leave int32 only through an immediate
    outside it.
    """
    (xa, ra), (xb, rb) = a, b
    if op in _WRAPPED:
        source, fn = _WRAPPED[op]
        return _assign(var, source.format(a=xa, b=xb),
                       _corners(ra, rb, fn))
    if op in _BITWISE:
        return _assign(var, _BITWISE[op].format(a=xa, b=xb),
                       INT32 if _fits(ra) and _fits(rb) else None)
    if op in _SELECT:
        cmp, fn = _SELECT[op]
        return [f"{var} = {xa} if {xa} {cmp} {xb} else {xb}"], \
            _corners(ra, rb, fn)
    if op is RCOp.MOV:
        return _assign(var, xa, ra)
    if op is RCOp.SRA:
        # A right shift moves toward 0 / -1, so the operand's hull with
        # its >> 31 image bounds every shift amount.
        rng = None if ra is None else (
            min(ra[0], ra[0] >> 31), max(ra[1], ra[1] >> 31)
        )
        return [f"{var} = {xa} >> ({xb} & 31)"], rng
    if op in _FIXED:
        return [f"{var} = {_FIXED[op].format(a=xa, b=xb)}"], INT32
    raise ProgramError(f"cannot compile RC op {op!r}")


@dataclass
class _BundleCode:
    lines: list
    uses_k: bool = False
    sets_k: bool = False
    #: VWR slices ``i >= 1`` addressed, each through ``k{i} = k + i * 32``.
    slices: set = field(default_factory=set)
    #: LCU counter bookkeeping (SETI/ADDI) — kept separable so
    #: closed-form loops can skip it per trip and reconstruct the final
    #: register values from the affine loop summary instead.
    lcu_lines: list = None

    def all_lines(self) -> list:
        if self.lcu_lines:
            return self.lines + self.lcu_lines
        return self.lines


class _BundleGen:
    """Lowers one bundle into flat source lines."""

    def __init__(self, params, reg_range) -> None:
        self.params = params
        self.slice_words = params.slice_words
        self.slice_mask = params.slice_words - 1
        self.n_rcs = params.rcs_per_column
        self.srf_entries = params.srf_entries
        #: Range of RC register / output-latch reads (see _reg_range).
        self.reg_range = reg_range

    # -- operand / guard helpers -----------------------------------------

    def _srf_guard(self, entry: int, guards: list) -> None:
        """Invalid static SRF entries raise the SRF's AddressError when the
        bundle executes (the reference raises mid-bundle; the compiled form
        raises before the bundle's side effects — see docs/engine.md)."""
        if not 0 <= entry < self.srf_entries:
            guards.append(f"_raise_srf({entry}, {self.srf_entries})")

    def _operand(self, operand, i: int, guards: list, code) -> tuple:
        """``(source, range)`` of one RC operand read by RC ``i``."""
        kind = operand.kind
        if kind is RCSrcKind.ZERO:
            return "0", (0, 0)
        if kind is RCSrcKind.IMM:
            value = int(operand.index)
            return repr(value), (value, value)
        if kind is RCSrcKind.R0:
            return f"R{i}[0]", self.reg_range
        if kind is RCSrcKind.R1:
            return f"R{i}[1]", self.reg_range
        if kind is RCSrcKind.RCT:
            return f"O[{(i - 1) % self.n_rcs}]", self.reg_range
        if kind is RCSrcKind.RCB:
            return f"O[{(i + 1) % self.n_rcs}]", self.reg_range
        if kind is RCSrcKind.SRF:
            self._srf_guard(operand.index, guards)
            return f"S[{int(operand.index)}]", INT32
        return f"{_VWR_SRC_NAMES[kind]}[{self._slot(i, code)}]", INT32

    @staticmethod
    def _slot(i: int, code) -> str:
        """VWR word index of RC ``i``'s slice at the current ``k``."""
        code.uses_k = True
        if i == 0:
            return "k"
        code.slices.add(i)
        return f"k{i}"

    # -- per-unit lowering -------------------------------------------------

    def gen(self, bundle) -> _BundleCode:
        code = _BundleCode(lines=[])
        guards = []
        self._gen_mxcu(bundle.mxcu, code, guards)
        self._gen_rcs(bundle.rcs, code, guards)
        self._gen_lsu(bundle.lsu, code, guards)
        self._gen_lcu_state(bundle.lcu, code, guards)
        if guards:
            # Any statically invalid SRF entry faults the whole bundle.
            code.lines = guards[:1] + code.lines
        return code

    def _gen_mxcu(self, instr, code, guards) -> None:
        if instr.op is MXCUOp.NOP:
            return
        if instr.op is MXCUOp.SETK:
            code.lines.append(f"k = {instr.k & self.slice_mask}")
            code.sets_k = True
            return
        if instr.srf_and != NO_SRF:
            self._srf_guard(instr.srf_and, guards)
            code.lines.append(
                f"k = (((k + {instr.inc}) & S[{instr.srf_and}]) ^ "
                f"{int(instr.xor_mask)}) & {self.slice_mask}"
            )
        else:
            # Constant masks fold: the slice mask subsumes an immediate
            # AND mask that already fits it, and a fitting XOR mask
            # cannot push the index back out of range.
            and_eff = int(instr.and_mask) & self.slice_mask
            xor_eff = int(instr.xor_mask) & self.slice_mask
            update = f"(k + {instr.inc}) & {and_eff}"
            if xor_eff:
                update = f"({update}) ^ {xor_eff}"
            if (int(instr.and_mask) | int(instr.xor_mask)) \
                    & ~self.slice_mask:
                update = f"({update}) & {self.slice_mask}"
            code.lines.append(f"k = {update}")
        code.uses_k = True
        code.sets_k = True

    def _gen_rcs(self, instrs, code, guards) -> None:
        computes = []
        commits = []
        for i, instr in enumerate(instrs):
            if instr.is_nop:
                continue
            operands = [self._operand(operand, i, guards, code)
                        for operand in instr.operands()]
            operands += [("0", (0, 0))] * (2 - len(operands))
            lines, rng = _alu_lines(instr.op, f"v{i}", *operands)
            computes += lines
            # Commit phase: all writes observe cycle-start reads. SRF and
            # VWR writes wrap like the reference's storage; the latches
            # keep the raw result, as the reference's do.
            stored = f"v{i}" if _fits(rng) else _full_wrap(f"v{i}")
            commits.append(f"O[{i}] = v{i}")
            kind = instr.dst.kind
            if kind is RCDstKind.R0:
                commits.append(f"R{i}[0] = v{i}")
            elif kind is RCDstKind.R1:
                commits.append(f"R{i}[1] = v{i}")
            elif kind is RCDstKind.SRF:
                self._srf_guard(instr.dst.index, guards)
                commits.append(f"S[{int(instr.dst.index)}] = {stored}")
            elif kind in _VWR_DST_NAMES:
                commits.append(
                    f"{_VWR_DST_NAMES[kind]}[{self._slot(i, code)}] = {stored}"
                )
        code.lines += computes + commits

    def _gen_lsu(self, instr, code, guards) -> None:
        op = instr.op
        if op is LSUOp.NOP:
            return
        params = self.params
        lines = code.lines
        if op in (LSUOp.LD_VWR, LSUOp.ST_VWR):
            self._srf_guard(instr.addr, guards)
            vwr = _LSU_VWR_NAMES[int(instr.vwr)]
            line_words = params.line_words
            lines.append(f"_a = S[{int(instr.addr)}]")
            lines.append(
                f"if not 0 <= _a < {params.spm_lines}: "
                "raise AddressError('SPM line %d out of range [0, "
                f"{params.spm_lines})' % _a)"
            )
            lines.append(f"_b = _a * {line_words}")
            if op is LSUOp.LD_VWR:
                lines.append(f"{vwr}[:] = M[_b:_b + {line_words}]")
            else:
                lines.append(f"M[_b:_b + {line_words}] = {vwr}")
            self._post_increment(instr, lines, params.spm_lines)
        elif op in (LSUOp.LD_SRF, LSUOp.ST_SRF):
            self._srf_guard(instr.addr, guards)
            self._srf_guard(instr.data, guards)
            lines.append(f"_a = S[{int(instr.addr)}]")
            lines.append(
                f"if not 0 <= _a < {params.spm_words}: "
                "raise AddressError('SPM word address %d out of range [0, "
                f"{params.spm_words})' % _a)"
            )
            if op is LSUOp.LD_SRF:
                lines.append(f"S[{int(instr.data)}] = M[_a]")
            else:
                lines.append(f"M[_a] = S[{int(instr.data)}]")
            self._post_increment(instr, lines, params.spm_words)
        elif op is LSUOp.SET_SRF:
            self._srf_guard(instr.data, guards)
            lines.append(
                f"S[{int(instr.data)}] = {to_signed32(instr.value)}"
            )
        elif op is LSUOp.SHUF:
            lines.append(f"VC[:] = _shuf{int(instr.mode)}(VA, VB)")
        else:
            raise ProgramError(f"cannot compile LSU op {op!r}")

    @staticmethod
    def _post_increment(instr, lines, bound: int) -> None:
        """Address write-back; the guard above proved ``0 <= _a < bound``."""
        inc = int(instr.inc)
        if inc:
            lines += _assign(f"S[{int(instr.addr)}]", f"_a + {inc}",
                             (inc, bound - 1 + inc))[0]

    def _gen_lcu_state(self, instr, code, guards) -> None:
        """The LCU's register-file side; control flow is the block's job."""
        op = instr.op
        if op is LCUOp.SETI:
            code.lcu_lines = [f"L[{instr.rd}] = {wrap32(instr.imm)}"]
        elif op is LCUOp.ADDI:
            imm = int(instr.imm)
            code.lcu_lines = _assign(
                f"L[{instr.rd}]", f"L[{instr.rd}] + {imm}",
                (INT32[0] + imm, INT32[1] + imm),
            )[0]
        elif op is LCUOp.LDSRF:
            self._srf_guard(instr.cmp, guards)
            code.lines.append(f"L[{instr.rd}] = S[{int(instr.cmp)}]")
        elif op in BRANCH_OPS and instr.cmp_kind is LCUCmp.SRF:
            self._srf_guard(instr.cmp, guards)


def _branch_cond(instr) -> str:
    """Source of the taken-condition of a branch LCU instruction."""
    if instr.cmp_kind is LCUCmp.IMM:
        cmp_expr = repr(int(instr.cmp))
    elif instr.cmp_kind is LCUCmp.REG:
        cmp_expr = f"L[{int(instr.cmp)}]"
    else:
        cmp_expr = f"S[{int(instr.cmp)}]"
    return f"L[{instr.rd}] {_CMP_SYMBOL[instr.op]} {cmp_expr}"


@dataclass
class BlockInfo:
    """Static description of one compiled basic block."""

    index: int           #: slot of its execution count in ``C``
    leader: int          #: PC of the block's first bundle
    delta: tuple         #: ((event, count), ...) for one execution
    closed_form: bool    #: trips solved at entry (one counted run)
    n_cycles: int        #: bundles (cycles) per execution


class CompiledProgram:
    """Code object + block metadata of one compiled ColumnProgram."""

    __slots__ = ("params", "source", "code", "blocks", "n_bundles")

    def __init__(self, params, source, code, blocks, n_bundles) -> None:
        self.params = params
        self.source = source
        self.code = code
        self.blocks = blocks
        self.n_bundles = n_bundles

    def listing(self) -> str:
        """The generated Python source (debug aid)."""
        return self.source


def signature_names(params) -> list:
    """Bind-time names the generated function takes as default args."""
    names = ["col", "S", "M", "VA", "VB", "VC", "O", "L"]
    names += [f"R{i}" for i in range(params.rcs_per_column)]
    return names


def compile_program(program, params) -> CompiledProgram:
    """Compile ``program``, once per shape."""
    shape = program_shape(program, params)
    if shape.compiled is None:
        shape.compiled = _compile(shape)
    return shape.compiled


_RC_READ_KINDS = (RCSrcKind.RCT, RCSrcKind.RCB)


def _hoistable_commits(bundles, pcs, body_lines) -> tuple:
    """Split a counted-loop body into per-trip lines and hoistable tails.

    Inside a loop whose trip count is known up front, the RC output
    latches (``O[i] = v``) and register-file writes (``R{i}[j] = v``) are
    dead until the final trip *when the body never reads them* — the
    compute temporaries carry the last trip's values, so the commits can
    replay once after the loop. VWR and SRF state stays per-trip (it is
    the loop's memory effect). Returns ``(loop_lines, post_lines)``.
    """
    reads_o = False
    read_regs = set()
    for pc in pcs:
        for i, instr in enumerate(bundles[pc].rcs):
            if instr.is_nop:
                continue
            for operand in instr.operands():
                kind = operand.kind
                if kind in _RC_READ_KINDS:
                    reads_o = True
                elif kind is RCSrcKind.R0:
                    read_regs.add((i, 0))
                elif kind is RCSrcKind.R1:
                    read_regs.add((i, 1))
    def _dead_latch(line: str) -> bool:
        target, _, _ = line.partition(" = ")
        if target.startswith("O["):
            return not reads_o
        if target.startswith("R") and target[1:2].isdigit() \
                and "[" in target:
            cell, _, slot = target[1:-1].partition("[")
            return cell.isdigit() and slot.isdigit() \
                and (int(cell), int(slot)) not in read_regs
        return False

    # A guarded wrap (``if not ... <= v0 <= ...: v0 = ...``) directly
    # follows its compute line, before any commit of the temporary, so
    # the compute line's position stands for both.
    last_assign = {}
    last_commit = {}
    for position, line in enumerate(body_lines):
        target, _, _ = line.partition(" = ")
        if target.startswith("v") and target[1:].isdigit():
            last_assign[target] = position
        if _dead_latch(line):
            last_commit[target] = position
    loop_lines = []
    post = []
    for position, line in enumerate(body_lines):
        target, _, source = line.partition(" = ")
        if target in last_commit:
            if position != last_commit[target]:
                # Overwritten later in the same trip and never read in
                # the body: fully dead.
                continue
            if last_assign.get(source, -1) <= position:
                # The temporary still holds this value after the final
                # trip: replay the commit once, after the loop.
                post.append(line)
                continue
        loop_lines.append(line)
    return loop_lines, list(post)


def _reg_range(bundles):
    """Range of RC register and output-latch reads in ``bundles``.

    The latches hold raw ALU results, which are int32 for int32 operands.
    Only an SRA/SMAX/SMIN on an immediate outside int32 latches more. The
    configuration encoding holds 17-bit immediates, so ``Vwr2a`` never
    runs such a program (nor leaves a wide latch for the next launch); a
    hand-built one compiled here reads its own latches as unbounded.
    """
    for bundle in bundles:
        for instr in bundle.rcs:
            for operand in instr.operands():
                if operand.kind is RCSrcKind.IMM \
                        and not _fits((operand.index, operand.index)):
                    return None
    return INT32


def _entry_offsets(lines, offsets) -> list:
    """The slice ``offsets`` an arm whose body is ``lines`` must compute
    at entry: those read before the body's first ``k`` write (after it,
    :func:`_k_offsets` recomputes them)."""
    read = set()
    for line in lines:
        read.update(_SLICE_NAME.findall(line))
        if line.startswith("k = "):
            break
    return [line for line in offsets if line.partition(" = ")[0] in read]


def _k_offsets(lines, offsets) -> list:
    """``lines`` with the slice ``offsets`` recomputed after each ``k``
    write."""
    out = []
    for line in lines:
        out.append(line)
        if line.startswith("k = "):
            out += offsets
    return out


def _transfer(target: int, leader: int, leaders: set) -> list:
    """Lines ending the arm of block ``leader`` with a jump to
    ``target``: fall into a later arm, loop back to an earlier one (or
    this one) past the budget check, or fault past the program."""
    if target not in leaders:
        return [f"raise _past_end_error(col.index, {target})"]
    if target > leader:
        return [f"pc = {target}"]
    return ([f"pc = {target}"] if target != leader else []) \
        + ["if steps > limit: return steps", "continue"]


def _compile(shape) -> CompiledProgram:
    bundles, params = shape.bundles, shape.params
    gen = _BundleGen(params, _reg_range(bundles))
    bodies = [gen.gen(bundle) for bundle in bundles]
    deltas = [bundle_event_delta(bundle, params) for bundle in bundles]
    sig = ", ".join(f"{name}={name}" for name in signature_names(params))
    block_list = shape.blocks
    leaders = {pcs[0] for pcs in block_list}
    sets_k = any(body.sets_k for body in bodies)

    lines = [f"def _run(limit, C, {sig}):", "steps = 0", "pc = 0"]
    if sets_k or any(body.uses_k for body in bodies):
        lines.append("k = col.k")
    lines.append("while True:")
    blocks = []
    #: Counted loops' entry slots follow the block slots in ``C``.
    entry = len(block_list)
    for index, pcs in enumerate(block_list):
        leader = pcs[0]
        n = len(pcs)
        last = bundles[pcs[-1]].lcu
        offsets = [
            f"k{i} = k + {i * params.slice_words}"
            for i in sorted(set().union(*(bodies[pc].slices for pc in pcs)))
        ]

        loop = shape.loops.get(leader)
        counted = loop is not None
        if counted:
            # Trip count solved once at loop entry. It holds while the
            # counter stays inside int32 over the trips the budget
            # allows; past that the launch replays on the reference. A
            # loop needing more trips than the budget allows returns at
            # once. The body runs at least once, so only its reads
            # decide which slice offsets the arm computes at entry.
            body = [line for pc in pcs for line in bodies[pc].lines]
            arm = _entry_offsets(body, offsets)
            arm += ["if steps > limit: return steps",
                    f"_v0 = L[{loop.branch.rd}]",
                    f"_bnd = {bound_expr(loop.branch)}",
                    *trip_count_lines(loop),
                    f"_n = (limit - steps) // {n}",
                    "if _t is not None and _t < _n: _n = _t",
                    f"if not -2147483648 <= _v0 + _n * {loop.delta} "
                    f"<= 2147483647: raise _CounterWrap(col.index, {leader})",
                    "if _n != _t: return limit + 1"]
            # The LCU lines stay out of the body: the registers are
            # rebuilt from the affine summary after the loop.
            counted_body, post_commits = _hoistable_commits(
                bundles, pcs, _k_offsets(body, offsets),
            )
            if counted_body:
                arm.append("for _ in range(_t):")
                arm += ["    " + line for line in counted_body]
            arm += post_commits
            for reg, sym in enumerate(loop.lcu):
                if sym[0] == "c":
                    arm.append(f"L[{reg}] = {sym[1]}")
                elif sym[1]:
                    arm += _assign(f"L[{reg}]", f"L[{reg}] + _t * {sym[1]}",
                                   None)[0]
            arm += [f"C[{index}] += _t", f"C[{entry}] += 1",
                    f"steps += _t * {n}",
                    *_transfer(pcs[-1] + 1, leader, leaders)]
            entry += 1
        else:
            body = [line for pc in pcs for line in bodies[pc].all_lines()]
            arm = _entry_offsets(body, offsets) + _k_offsets(body, offsets)
            arm += [f"C[{index}] += 1", f"steps += {n}"]
            if last.op is LCUOp.EXIT:
                arm += [f"col.pc = {pcs[-1] + 1}",
                        *(["col.k = k"] if sets_k else []), "return steps"]
            elif last.op in BRANCH_OPS:
                taken = _transfer(last.target, leader, leaders)
                fall = _transfer(pcs[-1] + 1, leader, leaders)
                arm += [f"if {_branch_cond(last)}:",
                        *["    " + line for line in taken], "else:",
                        *["    " + line for line in fall]]
            else:
                arm += _transfer(last.target if last.op is LCUOp.JUMP
                                 else pcs[-1] + 1, leader, leaders)
        lines.append(f"    if pc == {leader}:")
        lines += ["        " + line for line in arm]

        delta = Counter()
        for pc in pcs:
            delta.update(deltas[pc])
        blocks.append(BlockInfo(
            index=index,
            leader=leader,
            delta=tuple(sorted(delta.items())),
            closed_form=counted,
            n_cycles=n,
        ))

    lines[1:] = ["    " + line for line in lines[1:]]
    source = "\n".join(lines)
    code = compile(source, "<vwr2a-compiled-program>", "exec")
    return CompiledProgram(params, source, code, blocks, len(bundles))
