"""Reconfigurable-cell (RC) instructions.

Each RC holds a 32-bit ALU and a two-entry local register file (Sec. 3.1).
The ALU executes "typical operations: signed addition, subtraction and
multiplication, logical bitwise operations, and logical/arithmetic bit
shift", all single-cycle, plus the fixed-point 16.15 multiply mode. SMAX /
SMIN are included under "typical operations"; they are required by the
delineation kernel (see DESIGN.md Sec. 4 for the divergence note).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.fields import DST_NONE, ZERO, Dest, Operand


class RCOp(enum.IntEnum):
    NOP = 0
    SADD = 1      #: signed addition (wraps)
    SSUB = 2      #: signed subtraction (wraps)
    SMUL = 3      #: signed multiply, low 32 bits kept (standard mode)
    FXPMUL = 4    #: fixed-point multiply, 16.15 format (Sec. 3.1)
    SLL = 5       #: shift left logical
    SRL = 6       #: shift right logical
    SRA = 7       #: shift right arithmetic
    LAND = 8
    LOR = 9
    LXOR = 10
    LNOT = 11     #: bitwise complement of operand a
    MOV = 12      #: pass operand a through (neighbour staging, copies)
    SMAX = 13
    SMIN = 14
    # The 16-bit SIMD mode the paper proposes as a datapath optimization
    # ("One solution could be to have a 16-bit mode with two simultaneous
    # 16-bit operations instead of one 32-bit operation", Sec. 5.1.1):
    # two independent signed 16-bit lanes per 32-bit word.
    SADD16 = 15
    SSUB16 = 16
    FXPMUL16 = 17 #: per-lane q15 multiply ((a*b) >> 15 in each lane)


#: Ops that ignore their second operand.
UNARY_OPS = frozenset({RCOp.LNOT, RCOp.MOV})

#: Ops using the multiplier (more energy than adder/logic ops).
MUL_OPS = frozenset({RCOp.SMUL, RCOp.FXPMUL, RCOp.FXPMUL16})

#: Dual-lane 16-bit SIMD ops (the paper's proposed extension).
SIMD16_OPS = frozenset({RCOp.SADD16, RCOp.SSUB16, RCOp.FXPMUL16})


@dataclass(frozen=True)
class RCInstr:
    """One RC configuration word: ``dst = op(a, b)``.

    The VWR word index for VWR sources and destinations is supplied by the
    column's MXCU (Sec. 3.3.2) — it is *not* part of the RC instruction.
    """

    op: RCOp = RCOp.NOP
    dst: Dest = DST_NONE
    a: Operand = ZERO
    b: Operand = ZERO

    @property
    def is_nop(self) -> bool:
        return self.op is RCOp.NOP

    def operands(self) -> tuple:
        """The operands actually read by this instruction."""
        if self.op is RCOp.NOP:
            return ()
        if self.op in UNARY_OPS:
            return (self.a,)
        return (self.a, self.b)

    def __str__(self) -> str:
        if self.op is RCOp.NOP:
            return "NOP"
        srcs = ", ".join(str(operand) for operand in self.operands())
        return f"{self.op.name} {self.dst} <- {srcs}"


RC_NOP = RCInstr()


def rc(op: RCOp, dst: Dest = DST_NONE, a: Operand = ZERO,
       b: Operand = ZERO) -> RCInstr:
    """Shorthand constructor: ``dst = op(a, b)``."""
    return RCInstr(op=op, dst=dst, a=a, b=b)
