"""Instruction bundles: one PC step across all units of a column.

"There is evident parallelism between this architecture, where the RCs of a
column share a program counter, and a VLIW in which all the execution slots
are equivalent. Indeed, the instructions of the different RCs can be fused
and considered as a wide (predecoded) instruction word." (Sec. 3.1.)
A :class:`Bundle` is exactly that wide word: LCU + LSU + MXCU + one
instruction per RC, as in Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.lcu import LCU_NOP, LCUInstr
from repro.isa.lsu import LSU_NOP, LSUInstr, LSUOp
from repro.isa.mxcu import MXCU_NOP, MXCUInstr
from repro.isa.rc import RC_NOP, RCInstr

#: LSU op -> (granularity, direction) of its SPM access.
_SPM_ACCESS = {
    LSUOp.LD_VWR: ("line", "read"),
    LSUOp.ST_VWR: ("line", "write"),
    LSUOp.LD_SRF: ("word", "read"),
    LSUOp.ST_SRF: ("word", "write"),
}


@dataclass(frozen=True)
class Bundle:
    """One cycle's worth of configuration for a column."""

    lcu: LCUInstr = LCU_NOP
    lsu: LSUInstr = LSU_NOP
    mxcu: MXCUInstr = MXCU_NOP
    rcs: tuple = (RC_NOP, RC_NOP, RC_NOP, RC_NOP)

    @property
    def is_nop(self) -> bool:
        return (
            self.lcu.is_nop
            and self.lsu.is_nop
            and self.mxcu.is_nop
            and all(rc.is_nop for rc in self.rcs)
        )

    def rc(self, index: int) -> RCInstr:
        return self.rcs[index]

    def spm_access(self):
        """Footprint hook: the bundle's static SPM access shape, or None.

        Returns ``(granularity, direction, addr_entry, post_inc)`` —
        granularity ``"line"``/``"word"``, direction ``"read"``/
        ``"write"``, the SRF entry holding the address and the
        post-increment applied to it. *Which* addresses a kernel touches
        is fixed by the configuration words (the property the static
        event deltas of :mod:`repro.engine.deltas` rest on too); the SPM
        footprint walk (:func:`repro.engine.superblocks.step`) reads these
        shapes.
        """
        access = _SPM_ACCESS.get(self.lsu.op)
        if access is None:
            return None
        granularity, direction = access
        return (granularity, direction, int(self.lsu.addr),
                int(self.lsu.inc))

    def __str__(self) -> str:
        rc_txt = " | ".join(str(rc) for rc in self.rcs)
        return (
            f"LCU[{self.lcu}] LSU[{self.lsu}] MXCU[{self.mxcu}] "
            f"RC[{rc_txt}]"
        )


def make_bundle(
    lcu: LCUInstr = LCU_NOP,
    lsu: LSUInstr = LSU_NOP,
    mxcu: MXCUInstr = MXCU_NOP,
    rcs=None,
    n_rcs: int = 4,
) -> Bundle:
    """Build a bundle, padding missing RC slots with NOPs.

    ``rcs`` may be a list shorter than ``n_rcs`` (padded), a dict mapping RC
    index to instruction, or None (all NOPs).
    """
    if rcs is None:
        slots = [RC_NOP] * n_rcs
    elif isinstance(rcs, dict):
        slots = [rcs.get(i, RC_NOP) for i in range(n_rcs)]
    else:
        slots = list(rcs)
        if len(slots) > n_rcs:
            raise ValueError(f"{len(slots)} RC slots given, only {n_rcs} exist")
        slots += [RC_NOP] * (n_rcs - len(slots))
    return Bundle(lcu=lcu, lsu=lsu, mxcu=mxcu, rcs=tuple(slots))
