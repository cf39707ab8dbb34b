"""Superblock tier: closed-form self-loops.

Three layers of the compiled engine share the machinery in this module:

* :func:`loop_summary` — one symbolic walk of a fused self-loop body. Each
  SRF entry and LCU register is classified per trip as affine
  (``("d", delta)`` — trip-start value plus a constant), constant
  (``("c", v)`` — rewritten every trip), or data-dependent (``("u",)``).
  The cross-column SPM analysis (:mod:`repro.engine.conflicts`) uses it to
  accelerate loops abstractly; the compiler (:mod:`repro.engine.compiler`)
  uses the *same* walk to prove a loop's trip count is computable at loop
  entry from concrete LCU/SRF state.
* :func:`trip_count` — the closed-form solution of the loop branch: given
  the concrete counter and bound values at loop entry, the exact number of
  body executions (``None`` when the branch stays taken forever, i.e. the
  loop only ends on the cycle budget).
* :class:`LoopPlan` / :func:`plan_loop` — the compiler-facing summary: a
  proven loop carries its counter register, per-trip delta, bound operand
  and per-register affine classification. The compiler turns it into a
  counted scalar loop (trip count solved once at loop entry, no per-trip
  branch evaluation) whose final LCU register state is reconstructed
  from the affine summary; :func:`bound_expr` and
  :func:`trip_count_lines` emit the loop-entry source.

Everything here is stdlib-only, like the rest of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.fields import RCSrcKind
from repro.isa.lcu import LCUCmp, LCUOp
from repro.isa.lsu import LSUOp
from repro.utils.bits import to_signed32
from repro.utils.fixed_point import wrap32


# ---------------------------------------------------------------------------
# Symbolic per-trip loop summary (shared with repro.engine.conflicts)
# ---------------------------------------------------------------------------

def sym_add(sym, inc: int):
    """Add a constant to a symbolic per-trip value."""
    tag = sym[0]
    if tag == "u":
        return sym
    return (tag, sym[1] + inc)


def loop_summary(bundles, pcs, n_srf: int, n_lcu: int) -> dict:
    """One symbolic walk of a self-loop body (static, state-free).

    ``pcs`` are the loop's bundle PCs (leader through the back-branch).
    Returns the summary dict consumed by both the SPM-footprint
    acceleration and the compiler's closed-form loop planner: ``ok`` means
    the back-branch is a BLT/BGE whose counter advances by a non-zero
    constant per trip against a loop-invariant bound, i.e. the trip count
    is a closed-form function of the loop-entry register state.
    """
    srf_sym = {e: ("d", 0) for e in range(n_srf)}
    lcu_sym = {r: ("d", 0) for r in range(n_lcu)}
    sites = []
    ok = True
    for pc in pcs:
        bundle = bundles[pc]
        for instr in bundle.rcs:
            if instr.is_nop:
                continue
            for operand in instr.operands():
                if operand.kind is RCSrcKind.SRF \
                        and not 0 <= operand.index < n_srf:
                    ok = False
            if instr.dst.writes_srf:
                if 0 <= instr.dst.index < n_srf:
                    srf_sym[int(instr.dst.index)] = ("u",)
                else:
                    ok = False
        lsu = bundle.lsu
        access = bundle.spm_access()
        if access is not None:
            granularity, direction, entry, inc = access
            is_line = granularity == "line"
            is_write = direction == "write"
            if not 0 <= entry < n_srf or (
                not is_line and not 0 <= int(lsu.data) < n_srf
            ):
                ok = False
                continue
            sites.append((is_line, is_write, entry, srf_sym[entry]))
            if lsu.op is LSUOp.LD_SRF:
                srf_sym[int(lsu.data)] = ("u",)
            if inc:
                srf_sym[entry] = sym_add(srf_sym[entry], inc)
        elif lsu.op is LSUOp.SET_SRF:
            if 0 <= int(lsu.data) < n_srf:
                srf_sym[int(lsu.data)] = ("c", to_signed32(lsu.value))
            else:
                ok = False
        instr = bundle.lcu
        if instr.op is LCUOp.SETI:
            lcu_sym[instr.rd] = ("c", wrap32(instr.imm))
        elif instr.op is LCUOp.ADDI:
            lcu_sym[instr.rd] = sym_add(lcu_sym[instr.rd], int(instr.imm))
        elif instr.op is LCUOp.LDSRF:
            # Loop-varying load: conservatively data-dependent.
            lcu_sym[instr.rd] = ("u",)
    branch = bundles[pcs[-1]].lcu
    counter = lcu_sym.get(branch.rd, ("u",))
    if branch.op not in (LCUOp.BLT, LCUOp.BGE) \
            or counter[0] != "d" or counter[1] == 0:
        ok = False
    # The comparison operand must be loop-invariant.
    if branch.cmp_kind is LCUCmp.REG \
            and lcu_sym.get(int(branch.cmp)) != ("d", 0):
        ok = False
    if branch.cmp_kind is LCUCmp.SRF and (
        not 0 <= int(branch.cmp) < n_srf
        or srf_sym[int(branch.cmp)] != ("d", 0)
    ):
        ok = False
    return {
        "ok": ok,
        "pcs": pcs,
        "branch": branch,
        "srf_sym": srf_sym,
        "lcu_sym": lcu_sym,
        "sites": sites,
    }


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


# ---------------------------------------------------------------------------
# Compiler-facing loop plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopPlan:
    """Everything the compiler needs to accelerate one proven self-loop."""

    counter: int          #: LCU register driving the back-branch
    delta: int            #: per-trip counter increment (non-zero)
    op: "LCUOp"           #: LCUOp.BLT or LCUOp.BGE
    cmp_kind: "LCUCmp"    #: bound operand addressing mode
    cmp_index: int        #: immediate value / LCU register / SRF entry
    lcu_sym: dict         #: per-register symbolic per-trip classification


def plan_loop(bundles, pcs, params) -> LoopPlan:
    """Closed-form plan of a self-loop, or ``None`` when unprovable."""
    summary = loop_summary(
        bundles, pcs, params.srf_entries, params.lcu_registers
    )
    if not summary["ok"]:
        return None
    branch = summary["branch"]
    return LoopPlan(
        counter=int(branch.rd),
        delta=summary["lcu_sym"][branch.rd][1],
        op=branch.op,
        cmp_kind=branch.cmp_kind,
        cmp_index=int(branch.cmp),
        lcu_sym=summary["lcu_sym"],
    )


def bound_expr(plan: LoopPlan) -> str:
    """Source of the loop bound operand at loop entry."""
    if plan.cmp_kind is LCUCmp.IMM:
        return repr(plan.cmp_index)
    if plan.cmp_kind is LCUCmp.REG:
        return f"L[{plan.cmp_index}]"
    return f"S[{plan.cmp_index}]"


def trip_count_lines(plan: LoopPlan) -> list:
    """Source computing ``_t`` (trips or None) from ``_v0`` and ``_bnd``."""
    d = plan.delta
    if plan.op is LCUOp.BLT:
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
