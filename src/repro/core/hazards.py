"""Static structural-hazard checking.

Both single-ported resources of a column — the SRF and the VWRs — are
scheduled at compile time: which unit touches which resource in a bundle is
fully determined by the configuration word, never by runtime values. The
checks therefore run when the configuration memory first stores a kernel
object (its store stamp records that they passed), once per distinct
configuration word per process (:func:`check_program`), and the
per-cycle execution path stays check-free. This mirrors the hardware
reality: the paper's kernels are mapped by hand such that no two units
ever contend for the SRF port or a VWR port.

Rules enforced per bundle:

* **SRF** (Sec. 3.2: "single-ported, allowing one access at a time from the
  different units"): at most one of {LCU, LSU, MXCU, RC group} may use the
  SRF. Within the RC group, all readers must target the same entry (one
  broadcast read), at most one RC may write, and reads and writes cannot
  mix.
* **VWR**: a wide-side access (LSU load/store, shuffle) excludes any
  datapath-side access to the same VWR in the same cycle. Datapath word
  read + word write of the same VWR is allowed (latch-based registers,
  read-early/write-late — Table 1's ``VWRA = VWRA - VWRB``).
"""

from __future__ import annotations

from repro.core.errors import StructuralHazardError
from repro.isa.bundle import Bundle
from repro.isa.fields import RCSrcKind
from repro.utils.memo import PIECE_CAP, remember

#: Configuration words that passed :func:`check_bundle`, process-wide.
_HAZARD_FREE = {}


def rc_group_srf_usage(bundle: Bundle):
    """Return (read_entries, write_entries) the RC group requests."""
    reads = set()
    writes = set()
    for instr in bundle.rcs:
        for operand in instr.operands():
            if operand.kind is RCSrcKind.SRF:
                reads.add(operand.index)
        if not instr.is_nop and instr.dst.writes_srf:
            writes.add(instr.dst.index)
    return reads, writes


def check_bundle(bundle: Bundle, pc: int) -> None:
    """Raise :class:`StructuralHazardError` when ``bundle`` over-subscribes
    a single-ported resource."""
    # --- SRF port ---------------------------------------------------------
    users = []
    if bundle.lcu.uses_srf:
        users.append("LCU")
    if bundle.lsu.uses_srf:
        users.append("LSU")
    if bundle.mxcu.uses_srf:
        users.append("MXCU")
    rc_reads, rc_writes = rc_group_srf_usage(bundle)
    if rc_reads or rc_writes:
        users.append("RCs")
        if len(rc_reads) > 1:
            raise StructuralHazardError(
                "SRF", pc,
                f"RCs broadcast-read different entries {sorted(rc_reads)}",
            )
        if len(rc_writes) > 1:
            raise StructuralHazardError(
                "SRF", pc,
                f"multiple RCs write entries {sorted(rc_writes)}",
            )
        if rc_reads and rc_writes:
            raise StructuralHazardError(
                "SRF", pc, "RC group mixes SRF read and write"
            )
    if len(users) > 1:
        raise StructuralHazardError(
            "SRF", pc, f"requested by {', '.join(users)} in the same cycle"
        )

    # --- VWR ports --------------------------------------------------------
    wide = set(bundle.lsu.vwrs_touched())
    datapath = set()
    for instr in bundle.rcs:
        for operand in instr.operands():
            vwr = operand.vwr()
            if vwr is not None:
                datapath.add(vwr)
        if not instr.is_nop:
            vwr = instr.dst.vwr()
            if vwr is not None:
                datapath.add(vwr)
    conflict = wide & datapath
    if conflict:
        names = ", ".join(f"VWR {v.name}" for v in sorted(conflict))
        raise StructuralHazardError(
            "VWR", pc,
            f"{names}: wide-side (LSU/shuffle) and datapath access in the "
            "same cycle",
        )


def check_program(bundles, words) -> None:
    """Check every bundle of a program; raises at the first failing PC.

    ``words`` are the bundles' configuration words. A word is the exact
    encoding of its bundle, and whether a bundle over-subscribes a port
    depends on its fields alone, so a word that passed once passes
    everywhere: :data:`_HAZARD_FREE` remembers it, keyed on the word's
    int, and its bundle is not checked again. A failing word is never
    remembered, so a hazardous program raises at its own PC on every
    check.
    """
    for pc, word in enumerate(words):
        if word not in _HAZARD_FREE:
            check_bundle(bundles[pc], pc)
            remember(_HAZARD_FREE, word, None, PIECE_CAP)
