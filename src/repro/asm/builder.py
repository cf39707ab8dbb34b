"""Macro-assembler for VWR2A column programs.

The paper maps kernels by hand (Sec. 2: "We have currently mapped the code
manually on VWR2A"). The :class:`ProgramBuilder` is the reproducible form
of that hand-mapping: kernel generators emit bundles through it, using
symbolic labels for branch targets; :meth:`build` resolves labels and
returns a hazard-checkable :class:`~repro.isa.program.ColumnProgram`.
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import ProgramError
from repro.isa.bundle import make_bundle
from repro.isa.lcu import LCU_NOP, LCUInstr, LCUOp, exit_
from repro.isa.lsu import LSU_NOP, LSUInstr
from repro.isa.mxcu import MXCU_NOP, MXCUInstr
from repro.isa.program import ColumnProgram


class ProgramBuilder:
    """Incrementally builds one column's program."""

    def __init__(self, n_rcs: int = 4) -> None:
        self.n_rcs = n_rcs
        self._bundles = []
        self._labels = {}
        self._srf_init = {}

    # -- emission -----------------------------------------------------------

    @property
    def pc(self) -> int:
        """PC of the next emitted bundle."""
        return len(self._bundles)

    def label(self, name: str) -> None:
        """Attach ``name`` to the next emitted bundle."""
        if name in self._labels:
            raise ProgramError(f"label {name!r} defined twice")
        self._labels[name] = self.pc

    def emit(
        self,
        lcu: LCUInstr = LCU_NOP,
        lsu: LSUInstr = LSU_NOP,
        mxcu: MXCUInstr = MXCU_NOP,
        rcs=None,
    ) -> int:
        """Append one bundle; returns its PC."""
        bundle = make_bundle(
            lcu=lcu, lsu=lsu, mxcu=mxcu, rcs=rcs, n_rcs=self.n_rcs
        )
        self._bundles.append(bundle)
        return len(self._bundles) - 1

    def patch(self, pc: int, **slots) -> None:
        """Rebuild the bundle at ``pc`` from ``slots`` (as :meth:`emit`)."""
        self._bundles[pc] = make_bundle(n_rcs=self.n_rcs, **slots)

    def srf(self, entry: int, value: int) -> None:
        """Set an initial SRF value (installed at configuration load)."""
        self._srf_init[entry] = value

    def exit(self) -> int:
        """Emit the end-of-kernel bundle."""
        return self.emit(lcu=exit_())

    # -- finalization ---------------------------------------------------------

    def build(self) -> ColumnProgram:
        """Resolve labels and return the finished program."""
        resolved = []
        for pc, bundle in enumerate(self._bundles):
            lcu = bundle.lcu
            if isinstance(lcu.target, str):
                if lcu.target not in self._labels:
                    raise ProgramError(
                        f"bundle {pc}: undefined label {lcu.target!r}"
                    )
                lcu = dataclasses.replace(
                    lcu, target=self._labels[lcu.target]
                )
                bundle = dataclasses.replace(bundle, lcu=lcu)
            resolved.append(bundle)
        if not any(b.lcu.op is LCUOp.EXIT for b in resolved):
            raise ProgramError(
                "program has no EXIT bundle; the synchronizer would never "
                "see the kernel finish"
            )
        return ColumnProgram(bundles=resolved, srf_init=dict(self._srf_init))
