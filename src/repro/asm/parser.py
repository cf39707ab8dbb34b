"""Assembly-text front-end for VWR2A column programs.

Grammar (one bundle per line; unit slots separated by ``|``; missing slots
are NOPs; ``;`` starts a comment)::

    .srf <entry> <value>          ; initial SRF contents
    <label>:
        LCU SETI R0, 0 | LSU LD.VWR A, 1, +1 | MXCU SETK 0 | RC* SADD VWRC, VWRA, VWRB
        LCU ADDI R0, 1 | MXCU UPD 1
        LCU BLT R0, 32, <label>
        LCU EXIT

Unit syntaxes:

* ``LCU``: ``SETI Rd, imm`` / ``ADDI Rd, imm`` / ``LDSRF Rd, SRFe`` /
  ``BLT|BGE|BEQ|BNE Rd, (imm|Rn|SRFn), target`` / ``JUMP target`` / ``EXIT``
* ``LSU``: ``LD.VWR A|B|C, addr[, +inc]`` / ``ST.VWR ...`` /
  ``LD.SRF data, addr[, +inc]`` / ``ST.SRF data, addr[, +inc]`` /
  ``SET.SRF entry, value`` / ``SHUF MODE``
* ``MXCU``: ``SETK k`` / ``UPD inc[, and=m][, xor=m][, srfand=e]``
* ``RC<i>`` or ``RC*`` (all cells): ``OP DST, A[, B]`` with operands
  ``VWRA|VWRB|VWRC|R0|R1|RCT|RCB|ZERO|SRFn|#imm`` and destinations
  ``VWRA|VWRB|VWRC|R0|R1|SRFn|NONE``.
"""

from __future__ import annotations

import re

from repro.core.errors import ProgramError
from repro.asm.builder import ProgramBuilder
from repro.isa.fields import (
    DST_NONE,
    Dest,
    Operand,
    RCDstKind,
    RCSrcKind,
    ShuffleMode,
    Vwr,
)
from repro.isa.lcu import (
    LCUInstr,
    addi,
    beq,
    bge,
    blt,
    bne,
    exit_,
    jump,
    ldsrf,
    seti,
)
from repro.isa.lsu import LSUInstr, ld_srf, ld_vwr, set_srf, shuf, st_srf, st_vwr
from repro.isa.mxcu import MXCUInstr, MXCUOp, setk
from repro.isa.program import ColumnProgram
from repro.isa.rc import RCInstr, RCOp

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):$")
_SRF_DIRECTIVE_RE = re.compile(r"^\.srf\s+(\d+)\s+(-?\d+)$")

_RC_SRC = {
    "VWRA": Operand(RCSrcKind.VWR_A),
    "VWRB": Operand(RCSrcKind.VWR_B),
    "VWRC": Operand(RCSrcKind.VWR_C),
    "R0": Operand(RCSrcKind.R0),
    "R1": Operand(RCSrcKind.R1),
    "RCT": Operand(RCSrcKind.RCT),
    "RCB": Operand(RCSrcKind.RCB),
    "ZERO": Operand(RCSrcKind.ZERO),
}

_RC_DST = {
    "VWRA": Dest(RCDstKind.VWR_A),
    "VWRB": Dest(RCDstKind.VWR_B),
    "VWRC": Dest(RCDstKind.VWR_C),
    "R0": Dest(RCDstKind.R0),
    "R1": Dest(RCDstKind.R1),
    "NONE": DST_NONE,
}

_VWR_NAMES = {"A": Vwr.A, "B": Vwr.B, "C": Vwr.C}


class AsmError(ProgramError):
    """Syntax error in an assembly source text."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")


def _parse_int(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AsmError(line_no, f"expected an integer, got {token!r}")


def _parse_operand(token: str, line_no: int) -> Operand:
    token = token.strip().upper()
    if token in _RC_SRC:
        return _RC_SRC[token]
    if token.startswith("SRF"):
        return Operand(RCSrcKind.SRF, _parse_int(token[3:], line_no))
    if token.startswith("#"):
        return Operand(RCSrcKind.IMM, _parse_int(token[1:], line_no))
    raise AsmError(line_no, f"unknown RC operand {token!r}")


def _parse_dest(token: str, line_no: int) -> Dest:
    token = token.strip().upper()
    if token in _RC_DST:
        return _RC_DST[token]
    if token.startswith("SRF"):
        return Dest(RCDstKind.SRF, _parse_int(token[3:], line_no))
    raise AsmError(line_no, f"unknown RC destination {token!r}")


def _split_args(rest: str):
    return [arg.strip() for arg in rest.split(",")] if rest.strip() else []


def _parse_rc(body: str, line_no: int) -> RCInstr:
    parts = body.strip().split(None, 1)
    mnemonic = parts[0].upper()
    if mnemonic == "NOP":
        return RCInstr()
    try:
        op = RCOp[mnemonic]
    except KeyError:
        raise AsmError(line_no, f"unknown RC op {mnemonic!r}")
    args = _split_args(parts[1] if len(parts) > 1 else "")
    if not args:
        raise AsmError(line_no, f"{mnemonic} needs a destination")
    dst = _parse_dest(args[0], line_no)
    a = _parse_operand(args[1], line_no) if len(args) > 1 else _RC_SRC["ZERO"]
    b = _parse_operand(args[2], line_no) if len(args) > 2 else _RC_SRC["ZERO"]
    return RCInstr(op=op, dst=dst, a=a, b=b)


def _parse_lsu(body: str, line_no: int) -> LSUInstr:
    parts = body.strip().split(None, 1)
    mnemonic = parts[0].upper()
    args = _split_args(parts[1] if len(parts) > 1 else "")

    def inc_of(index: int) -> int:
        if len(args) > index:
            token = args[index]
            if not token.startswith("+") and not token.startswith("-"):
                raise AsmError(line_no, f"increment must be signed: {token!r}")
            return _parse_int(token, line_no)
        return 0

    if mnemonic == "NOP":
        return LSUInstr()
    if mnemonic in ("LD.VWR", "ST.VWR"):
        vwr_name = args[0].upper()
        if vwr_name not in _VWR_NAMES:
            raise AsmError(line_no, f"unknown VWR {args[0]!r}")
        ctor = ld_vwr if mnemonic == "LD.VWR" else st_vwr
        return ctor(_VWR_NAMES[vwr_name], _parse_int(args[1], line_no),
                    inc_of(2))
    if mnemonic in ("LD.SRF", "ST.SRF"):
        ctor = ld_srf if mnemonic == "LD.SRF" else st_srf
        return ctor(_parse_int(args[0], line_no),
                    _parse_int(args[1], line_no), inc_of(2))
    if mnemonic == "SET.SRF":
        return set_srf(_parse_int(args[0], line_no),
                       _parse_int(args[1], line_no))
    if mnemonic == "SHUF":
        mode_name = args[0].upper()
        try:
            return shuf(ShuffleMode[mode_name])
        except KeyError:
            raise AsmError(line_no, f"unknown shuffle mode {args[0]!r}")
    raise AsmError(line_no, f"unknown LSU op {mnemonic!r}")


def _parse_mxcu(body: str, line_no: int) -> MXCUInstr:
    parts = body.strip().split(None, 1)
    mnemonic = parts[0].upper()
    args = _split_args(parts[1] if len(parts) > 1 else "")
    if mnemonic == "NOP":
        return MXCUInstr()
    if mnemonic == "SETK":
        return setk(_parse_int(args[0], line_no))
    if mnemonic == "UPD":
        inc = _parse_int(args[0], line_no) if args else 0
        and_mask, xor_mask, srf_and = 0x1F, 0, -1
        for extra in args[1:]:
            key, _, value = extra.partition("=")
            key = key.strip().lower()
            if key == "and":
                and_mask = _parse_int(value, line_no)
            elif key == "xor":
                xor_mask = _parse_int(value, line_no)
            elif key == "srfand":
                srf_and = _parse_int(value, line_no)
            else:
                raise AsmError(line_no, f"unknown UPD option {extra!r}")
        return MXCUInstr(op=MXCUOp.UPD, inc=inc, and_mask=and_mask,
                         xor_mask=xor_mask, srf_and=srf_and)
    raise AsmError(line_no, f"unknown MXCU op {mnemonic!r}")


def _parse_lcu(body: str, line_no: int) -> LCUInstr:
    parts = body.strip().split(None, 1)
    mnemonic = parts[0].upper()
    args = _split_args(parts[1] if len(parts) > 1 else "")

    def reg_of(token: str) -> int:
        token = token.strip().upper()
        if not token.startswith("R"):
            raise AsmError(line_no, f"expected a register, got {token!r}")
        return _parse_int(token[1:], line_no)

    if mnemonic == "NOP":
        return LCUInstr()
    if mnemonic == "SETI":
        return seti(reg_of(args[0]), _parse_int(args[1], line_no))
    if mnemonic == "ADDI":
        return addi(reg_of(args[0]), _parse_int(args[1], line_no))
    if mnemonic == "LDSRF":
        entry_token = args[1].strip().upper()
        if not entry_token.startswith("SRF"):
            raise AsmError(line_no, f"LDSRF needs SRF<n>, got {args[1]!r}")
        return ldsrf(reg_of(args[0]), _parse_int(entry_token[3:], line_no))
    if mnemonic in ("BLT", "BGE", "BEQ", "BNE"):
        ctor = {"BLT": blt, "BGE": bge, "BEQ": beq, "BNE": bne}[mnemonic]
        cmp_token = args[1].strip().upper()
        if cmp_token.startswith("SRF"):
            cmp = ("srf", _parse_int(cmp_token[3:], line_no))
        elif cmp_token.startswith("R") and cmp_token[1:].isdigit():
            cmp = ("reg", _parse_int(cmp_token[1:], line_no))
        else:
            cmp = _parse_int(cmp_token, line_no)
        return ctor(reg_of(args[0]), cmp, args[2])
    if mnemonic == "JUMP":
        return jump(args[0])
    if mnemonic == "EXIT":
        return exit_()
    raise AsmError(line_no, f"unknown LCU op {mnemonic!r}")


def parse_program(source: str, n_rcs: int = 4) -> ColumnProgram:
    """Assemble a source text into a :class:`ColumnProgram`."""
    builder = ProgramBuilder(n_rcs=n_rcs)
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        directive = _SRF_DIRECTIVE_RE.match(line)
        if directive:
            builder.srf(int(directive.group(1)), int(directive.group(2)))
            continue
        label = _LABEL_RE.match(line)
        if label:
            builder.label(label.group(1))
            continue
        slots = {"lcu": None, "lsu": None, "mxcu": None}
        rcs = {}
        for slot in line.split("|"):
            slot = slot.strip()
            if not slot:
                continue
            unit, _, body = slot.partition(" ")
            unit = unit.upper()
            if unit == "LCU":
                slots["lcu"] = _parse_lcu(body, line_no)
            elif unit == "LSU":
                slots["lsu"] = _parse_lsu(body, line_no)
            elif unit == "MXCU":
                slots["mxcu"] = _parse_mxcu(body, line_no)
            elif unit == "RC*":
                instr = _parse_rc(body, line_no)
                for i in range(n_rcs):
                    rcs[i] = instr
            elif unit.startswith("RC"):
                index = int(unit[2:])
                if not 0 <= index < n_rcs:
                    raise AsmError(line_no, f"no such RC: {unit}")
                rcs[index] = _parse_rc(body, line_no)
            else:
                raise AsmError(line_no, f"unknown unit {unit!r}")
        builder.emit(
            lcu=slots["lcu"] or LCUInstr(),
            lsu=slots["lsu"] or LSUInstr(),
            mxcu=slots["mxcu"] or MXCUInstr(),
            rcs=rcs,
        )
    return builder.build()
