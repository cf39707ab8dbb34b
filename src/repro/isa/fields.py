"""Shared field definitions of the VWR2A instruction set.

The paper stresses that configuration-word bits map directly onto datapath
control signals ("without an actual decoding process", Sec. 3.1); the enums
below are those control signals. Operand routing for the RCs follows
Sec. 3.1: "The ALU operands have multiple sources: the VWRs, the SRF, the RC
local register file, and the previous-cycle results of neighboring RCs."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Vwr(enum.IntEnum):
    """The three very-wide registers of a column (Fig. 1)."""

    A = 0
    B = 1
    C = 2


class RCSrcKind(enum.IntEnum):
    """Where an RC ALU operand comes from."""

    ZERO = 0
    VWR_A = 1
    VWR_B = 2
    VWR_C = 3
    SRF = 4      #: scalar register file entry (broadcast to all RCs)
    R0 = 5       #: RC-local register 0
    R1 = 6       #: RC-local register 1
    RCT = 7      #: previous-cycle result of the RC above (wraps in column)
    RCB = 8      #: previous-cycle result of the RC below (wraps in column)
    IMM = 9      #: signed immediate embedded in the configuration word


class RCDstKind(enum.IntEnum):
    """Where an RC result is written."""

    NONE = 0     #: result only latched in the RC output register
    VWR_A = 1
    VWR_B = 2
    VWR_C = 3
    R0 = 4
    R1 = 5
    SRF = 6


_VWR_SRC = {
    RCSrcKind.VWR_A: Vwr.A,
    RCSrcKind.VWR_B: Vwr.B,
    RCSrcKind.VWR_C: Vwr.C,
}

_VWR_DST = {
    RCDstKind.VWR_A: Vwr.A,
    RCDstKind.VWR_B: Vwr.B,
    RCDstKind.VWR_C: Vwr.C,
}


@dataclass(frozen=True)
class Operand:
    """An RC operand: a source kind plus its payload.

    ``index`` holds the SRF entry for ``SRF`` sources and the signed
    immediate value for ``IMM`` sources; it is unused otherwise.
    """

    kind: RCSrcKind
    index: int = 0

    def vwr(self) -> "Vwr | None":
        """The VWR read by this operand, or None."""
        return _VWR_SRC.get(self.kind)

    @property
    def reads_srf(self) -> bool:
        return self.kind is RCSrcKind.SRF

    def __str__(self) -> str:
        if self.kind is RCSrcKind.SRF:
            return f"SRF[{self.index}]"
        if self.kind is RCSrcKind.IMM:
            return f"#{self.index}"
        if self.kind in _VWR_SRC:
            return f"VWR{_VWR_SRC[self.kind].name}"
        return self.kind.name


@dataclass(frozen=True)
class Dest:
    """An RC destination: a kind plus the SRF entry when kind is SRF."""

    kind: RCDstKind
    index: int = 0

    def vwr(self) -> "Vwr | None":
        """The VWR written by this destination, or None."""
        return _VWR_DST.get(self.kind)

    @property
    def writes_srf(self) -> bool:
        return self.kind is RCDstKind.SRF

    def __str__(self) -> str:
        if self.kind is RCDstKind.SRF:
            return f"SRF[{self.index}]"
        if self.kind in _VWR_DST:
            return f"VWR{_VWR_DST[self.kind].name}"
        return self.kind.name


# Ergonomic singletons for kernel generators and hand-written programs.
ZERO = Operand(RCSrcKind.ZERO)
VWR_A = Operand(RCSrcKind.VWR_A)
VWR_B = Operand(RCSrcKind.VWR_B)
VWR_C = Operand(RCSrcKind.VWR_C)
R0 = Operand(RCSrcKind.R0)
R1 = Operand(RCSrcKind.R1)
RCT = Operand(RCSrcKind.RCT)
RCB = Operand(RCSrcKind.RCB)

DST_NONE = Dest(RCDstKind.NONE)
DST_VWR_A = Dest(RCDstKind.VWR_A)
DST_VWR_B = Dest(RCDstKind.VWR_B)
DST_VWR_C = Dest(RCDstKind.VWR_C)
DST_R0 = Dest(RCDstKind.R0)
DST_R1 = Dest(RCDstKind.R1)

#: Map a :class:`Vwr` to the matching operand / destination.
VWR_OPERANDS = {Vwr.A: VWR_A, Vwr.B: VWR_B, Vwr.C: VWR_C}
VWR_DESTS = {Vwr.A: DST_VWR_A, Vwr.B: DST_VWR_B, Vwr.C: DST_VWR_C}


def srf(entry: int) -> Operand:
    """Operand reading SRF entry ``entry``."""
    return Operand(RCSrcKind.SRF, entry)


def imm(value: int) -> Operand:
    """Signed-immediate operand (configuration-word constant)."""
    return Operand(RCSrcKind.IMM, value)


def dst_srf(entry: int) -> Dest:
    """Destination writing SRF entry ``entry``."""
    return Dest(RCDstKind.SRF, entry)


class ShuffleMode(enum.IntEnum):
    """Hardcoded shuffle-unit operations (Sec. 3.3.1).

    Every mode consumes the 2V-word concatenation of VWRs A and B (V =
    VWR width in words) and produces V words into VWR C. The LO/HI suffix
    selects the lower or upper half of the 2V-word intermediate result for
    the interleave / bit-reversal / circular-shift modes; the pruning modes
    inherently produce V words.
    """

    INTERLEAVE_LO = 0
    INTERLEAVE_HI = 1
    EVEN_PRUNE = 2
    ODD_PRUNE = 3
    BITREV_LO = 4
    BITREV_HI = 5
    CSHIFT_LO = 6
    CSHIFT_HI = 7
