"""Activity-event accounting.

Every architectural component logs named events into a shared
:class:`EventCounters`; the energy model (``repro.energy``) multiplies the
counts by calibrated per-event energies. This mirrors what the paper does
with gate-level switching activity and PrimePower, at event rather than
net granularity.

Event name convention: ``component.action`` — e.g. ``spm.wide_read``.
"""

from __future__ import annotations

from collections import Counter


class Ev:
    """Canonical event names (component.action)."""

    # Scratchpad memory (wide accelerator port / narrow system port).
    SPM_WIDE_READ = "spm.wide_read"
    SPM_WIDE_WRITE = "spm.wide_write"
    SPM_WORD_READ = "spm.word_read"
    SPM_WORD_WRITE = "spm.word_write"
    # Very-wide registers: wide side (SPM/shuffle) vs datapath side (muxes).
    VWR_WIDE_READ = "vwr.wide_read"
    VWR_WIDE_WRITE = "vwr.wide_write"
    VWR_WORD_READ = "vwr.word_read"
    VWR_WORD_WRITE = "vwr.word_write"
    # Scalar register file.
    SRF_READ = "srf.read"
    SRF_WRITE = "srf.write"
    # Reconfigurable cells.
    RC_ISSUE = "rc.issue"
    RC_ALU_ADD = "rc.alu_add"
    RC_ALU_MUL = "rc.alu_mul"
    RC_ALU_SHIFT = "rc.alu_shift"
    RC_ALU_LOGIC = "rc.alu_logic"
    RC_ALU_MOV = "rc.alu_mov"
    RC_RF_READ = "rc.rf_read"
    RC_RF_WRITE = "rc.rf_write"
    # Specialized slots and control.
    LSU_ISSUE = "lsu.issue"
    LCU_ISSUE = "lcu.issue"
    LCU_BRANCH = "lcu.branch"
    MXCU_ISSUE = "mxcu.issue"
    SHUFFLE_OP = "shuffle.op"
    PM_FETCH = "pm.fetch"
    CONFIG_WORD = "config.word"
    COLUMN_CYCLE = "column.cycle"
    # DMA / system side.
    DMA_BEAT = "dma.beat"
    DMA_SETUP = "dma.setup"
    BUS_BEAT = "bus.beat"
    BUS_SETUP = "bus.setup"
    SRAM_READ = "sram.read"
    SRAM_WRITE = "sram.write"
    # Host CPU and fixed-function FFT accelerator (SoC substrate).
    CPU_CYCLE = "cpu.cycle"
    FFT_ACCEL_CYCLE = "fft_accel.cycle"
    FFT_ACCEL_BUTTERFLY = "fft_accel.butterfly"
    FFT_ACCEL_MEM = "fft_accel.mem"
    FFT_ACCEL_IO = "fft_accel.io"


class EventCounters:
    """A named-event tally shared by all components of one simulation."""

    def __init__(self) -> None:
        self._counts = Counter()

    def add(self, name: str, count: int = 1) -> None:
        """Record ``count`` occurrences of event ``name``."""
        if count:
            self._counts[name] += count

    def add_many(self, counts: dict) -> None:
        """Bulk-record a ``{name: count}`` batch in one update.

        Equivalent to calling :meth:`add` per entry (zero counts are
        skipped so snapshots stay free of empty keys), in one pass; used by
        the DMA, the configuration load and the compiled engine's
        once-per-launch event fold.
        """
        tally = self._counts
        get = tally.get
        for name, count in counts.items():
            if count:
                tally[name] = get(name, 0) + count

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def merge(self, other: "EventCounters") -> None:
        """Fold another tally into this one."""
        self._counts.update(other._counts)

    def snapshot(self) -> dict:
        """An immutable copy of the current counts."""
        return dict(self._counts)

    def diff(self, before: dict) -> dict:
        """Counts accumulated since ``before`` (a :meth:`snapshot`)."""
        return {
            name: count - before.get(name, 0)
            for name, count in self._counts.items()
            if count != before.get(name, 0)
        }

    def reset(self) -> None:
        self._counts.clear()

    def items(self):
        return self._counts.items()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        top = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self._counts.items())[:6]
        )
        return f"EventCounters({top}{'...' if len(self._counts) > 6 else ''})"
