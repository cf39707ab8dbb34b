"""Binary encoding of configuration words.

"The bits of the configuration words (i.e., 'instructions') correspond
directly to the control signals in the cell datapaths, without an actual
decoding process." (Sec. 3.1.) This module defines that bit-level layout:
every unit instruction packs into a fixed-width field group and a bundle is
the concatenation of its unit words. The configuration memory stores these
integers; encode/decode are exact inverses (property-tested).

Field widths (LSB first within each unit word):

* RC    (53 bits): op:5  dst_kind:3  dst_idx:3  a_kind:4  a_val:s17
                   b_kind:4  b_val:s17
* LSU   (54 bits): op:3  vwr:2  addr:3  inc:s8  data:3  mode:3  value:u32
* MXCU  (27 bits): op:2  k:5  inc:s6  and:5  xor:5  srf_and:4 (0xF = none)
* LCU   (48 bits): op:4  rd:2  imm:s17  cmp_kind:2  cmp:s17  target:6

``sNN`` fields are signed two's complement; ``value`` stores the unsigned
view of the 32-bit constant.
"""

from __future__ import annotations

from repro.isa.bundle import Bundle
from repro.isa.fields import Dest, Operand, RCDstKind, RCSrcKind, ShuffleMode, Vwr
from repro.isa.lcu import LCUCmp, LCUInstr, LCUOp
from repro.isa.lsu import LSUInstr, LSUOp
from repro.isa.mxcu import NO_SRF, MXCUInstr, MXCUOp
from repro.isa.rc import RCInstr, RCOp
from repro.utils.bits import sign_extend, to_signed32, to_unsigned32

RC_BITS = 53
LSU_BITS = 54
MXCU_BITS = 27
LCU_BITS = 48

#: The LCU's branch/jump ``target`` field (its top 6 bits) in a
#: configuration word.
TARGET_FIELD = 0x3F << (LCU_BITS - 6)


def bundle_bits(n_rcs: int = 4) -> int:
    """Total configuration-word width of a bundle."""
    return LCU_BITS + LSU_BITS + MXCU_BITS + n_rcs * RC_BITS


class _Packer:
    """Append-only LSB-first bit packer."""

    def __init__(self) -> None:
        self.word = 0
        self.pos = 0

    def put(self, value: int, bits: int, signed: bool = False) -> None:
        if signed:
            lo = -(1 << (bits - 1))
            hi = (1 << (bits - 1)) - 1
            if not lo <= value <= hi:
                raise ValueError(
                    f"value {value} does not fit a signed {bits}-bit field"
                )
            value &= (1 << bits) - 1
        elif not 0 <= value < (1 << bits):
            raise ValueError(
                f"value {value} does not fit an unsigned {bits}-bit field"
            )
        self.word |= value << self.pos
        self.pos += bits


class _Unpacker:
    """LSB-first bit unpacker matching :class:`_Packer`."""

    def __init__(self, word: int) -> None:
        self.word = word
        self.pos = 0

    def get(self, bits: int, signed: bool = False) -> int:
        raw = (self.word >> self.pos) & ((1 << bits) - 1)
        self.pos += bits
        return sign_extend(raw, bits) if signed else raw


def encode_rc(instr: RCInstr) -> int:
    packer = _Packer()
    packer.put(int(instr.op), 5)
    packer.put(int(instr.dst.kind), 3)
    packer.put(instr.dst.index, 3)
    packer.put(int(instr.a.kind), 4)
    packer.put(instr.a.index, 17, signed=True)
    packer.put(int(instr.b.kind), 4)
    packer.put(instr.b.index, 17, signed=True)
    return packer.word


def decode_rc(word: int) -> RCInstr:
    unpacker = _Unpacker(word)
    op = RCOp(unpacker.get(5))
    dst = Dest(RCDstKind(unpacker.get(3)), unpacker.get(3))
    a = Operand(RCSrcKind(unpacker.get(4)), unpacker.get(17, signed=True))
    b = Operand(RCSrcKind(unpacker.get(4)), unpacker.get(17, signed=True))
    return RCInstr(op=op, dst=dst, a=a, b=b)


def encode_lsu(instr: LSUInstr) -> int:
    packer = _Packer()
    packer.put(int(instr.op), 3)
    packer.put(int(instr.vwr), 2)
    packer.put(instr.addr, 3)
    packer.put(instr.inc, 8, signed=True)
    packer.put(instr.data, 3)
    packer.put(int(instr.mode), 3)
    packer.put(to_unsigned32(instr.value), 32)
    return packer.word


def decode_lsu(word: int) -> LSUInstr:
    unpacker = _Unpacker(word)
    op = LSUOp(unpacker.get(3))
    vwr = Vwr(unpacker.get(2))
    addr = unpacker.get(3)
    inc = unpacker.get(8, signed=True)
    data = unpacker.get(3)
    mode = ShuffleMode(unpacker.get(3))
    value = to_signed32(unpacker.get(32))
    return LSUInstr(
        op=op, vwr=vwr, addr=addr, inc=inc, data=data, value=value, mode=mode
    )


def encode_mxcu(instr: MXCUInstr) -> int:
    packer = _Packer()
    packer.put(int(instr.op), 2)
    packer.put(instr.k, 5)
    packer.put(instr.inc, 6, signed=True)
    packer.put(instr.and_mask, 5)
    packer.put(instr.xor_mask, 5)
    packer.put(0xF if instr.srf_and == NO_SRF else instr.srf_and, 4)
    return packer.word


def decode_mxcu(word: int) -> MXCUInstr:
    unpacker = _Unpacker(word)
    op = MXCUOp(unpacker.get(2))
    k = unpacker.get(5)
    inc = unpacker.get(6, signed=True)
    and_mask = unpacker.get(5)
    xor_mask = unpacker.get(5)
    srf_raw = unpacker.get(4)
    srf_and = NO_SRF if srf_raw == 0xF else srf_raw
    return MXCUInstr(
        op=op, k=k, inc=inc, and_mask=and_mask, xor_mask=xor_mask,
        srf_and=srf_and,
    )


def encode_lcu(instr: LCUInstr) -> int:
    packer = _Packer()
    packer.put(int(instr.op), 4)
    packer.put(instr.rd, 2)
    packer.put(instr.imm, 17, signed=True)
    packer.put(int(instr.cmp_kind), 2)
    packer.put(instr.cmp, 17, signed=True)
    packer.put(instr.target, 6)
    return packer.word


def decode_lcu(word: int) -> LCUInstr:
    unpacker = _Unpacker(word)
    op = LCUOp(unpacker.get(4))
    rd = unpacker.get(2)
    imm = unpacker.get(17, signed=True)
    cmp_kind = LCUCmp(unpacker.get(2))
    cmp = unpacker.get(17, signed=True)
    target = unpacker.get(6)
    return LCUInstr(
        op=op, rd=rd, imm=imm, cmp_kind=cmp_kind, cmp=cmp, target=target
    )


def encode_bundles(bundles) -> tuple:
    """Pack a bundle sequence into its configuration words, in order.

    Each distinct unit instruction is encoded once, with a memo local to
    the call: a program repeats its NOPs and loop-body slots, so most
    unit words are reused.
    """
    memo = {}

    def unit(encode, instr) -> int:
        word = memo.get(instr)
        if word is None:
            word = memo[instr] = encode(instr)
        return word

    words = []
    for bundle in bundles:
        word = unit(encode_lcu, bundle.lcu)
        offset = LCU_BITS
        word |= unit(encode_lsu, bundle.lsu) << offset
        offset += LSU_BITS
        word |= unit(encode_mxcu, bundle.mxcu) << offset
        offset += MXCU_BITS
        for rc in bundle.rcs:
            word |= unit(encode_rc, rc) << offset
            offset += RC_BITS
        words.append(word)
    return tuple(words)


def encode_bundle(bundle: Bundle) -> int:
    """Pack a bundle into one configuration word (an arbitrary-size int)."""
    return encode_bundles((bundle,))[0]


def decode_bundle(word: int, n_rcs: int = 4) -> Bundle:
    """Inverse of :func:`encode_bundle`."""
    lcu = decode_lcu(word & ((1 << LCU_BITS) - 1))
    offset = LCU_BITS
    lsu = decode_lsu((word >> offset) & ((1 << LSU_BITS) - 1))
    offset += LSU_BITS
    mxcu = decode_mxcu((word >> offset) & ((1 << MXCU_BITS) - 1))
    offset += MXCU_BITS
    rcs = []
    for _ in range(n_rcs):
        rcs.append(decode_rc((word >> offset) & ((1 << RC_BITS) - 1)))
        offset += RC_BITS
    return Bundle(lcu=lcu, lsu=lsu, mxcu=mxcu, rcs=tuple(rcs))
