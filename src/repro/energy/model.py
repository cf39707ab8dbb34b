"""Activity-based energy model.

``EnergyTable`` maps event names to per-event energies (pJ) and components
to leakage (pJ/cycle); ``EnergyModel`` folds an event tally plus elapsed
cycles into per-component energies, mirroring the paper's
switching-activity -> PrimePower flow at event granularity.

Component taxonomy (Table 3 of the paper):

* ``dma`` / ``memories`` (SPM + VWRs) / ``control`` / ``datapath`` —
  the VWR2A breakdown;
* ``accel_*`` — the fixed-function FFT accelerator;
* ``cpu`` / ``system`` — the host processor and the bus/SRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Ev

#: Which Table-3 component each event belongs to.
COMPONENT_OF_EVENT = {
    Ev.SPM_WIDE_READ: "memories",
    Ev.SPM_WIDE_WRITE: "memories",
    Ev.SPM_WORD_READ: "memories",
    Ev.SPM_WORD_WRITE: "memories",
    Ev.VWR_WIDE_READ: "memories",
    Ev.VWR_WIDE_WRITE: "memories",
    Ev.VWR_WORD_READ: "memories",
    Ev.VWR_WORD_WRITE: "memories",
    Ev.SRF_READ: "control",
    Ev.SRF_WRITE: "control",
    Ev.PM_FETCH: "control",
    Ev.LCU_ISSUE: "control",
    Ev.LCU_BRANCH: "control",
    Ev.LSU_ISSUE: "control",
    Ev.MXCU_ISSUE: "control",
    Ev.CONFIG_WORD: "control",
    Ev.COLUMN_CYCLE: "control",
    Ev.RC_ISSUE: "datapath",
    Ev.RC_ALU_ADD: "datapath",
    Ev.RC_ALU_MUL: "datapath",
    Ev.RC_ALU_SHIFT: "datapath",
    Ev.RC_ALU_LOGIC: "datapath",
    Ev.RC_ALU_MOV: "datapath",
    Ev.RC_RF_READ: "datapath",
    Ev.RC_RF_WRITE: "datapath",
    Ev.SHUFFLE_OP: "memories",
    Ev.DMA_BEAT: "dma",
    Ev.DMA_SETUP: "dma",
    Ev.BUS_BEAT: "system",
    Ev.BUS_SETUP: "system",
    Ev.SRAM_READ: "system",
    Ev.SRAM_WRITE: "system",
    Ev.CPU_CYCLE: "cpu",
    Ev.FFT_ACCEL_BUTTERFLY: "accel_datapath",
    Ev.FFT_ACCEL_MEM: "accel_memories",
    Ev.FFT_ACCEL_IO: "accel_dma",
    Ev.FFT_ACCEL_CYCLE: "accel_control",
}

#: VWR2A-side components with per-cycle leakage (charged while the
#: accelerator power domain is on).
VWR2A_COMPONENTS = ("dma", "memories", "control", "datapath")
ACCEL_COMPONENTS = (
    "accel_dma", "accel_memories", "accel_control", "accel_datapath"
)


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energies (pJ) and per-component leakage (pJ/cycle)."""

    per_event_pj: dict
    leakage_pj_per_cycle: dict
    cpu_pj_per_cycle: float
    cpu_sleep_pj_per_cycle: float

    def event_energy(self, name: str) -> float:
        return self.per_event_pj.get(name, 0.0)


@dataclass
class EnergyReport:
    """Per-component energies in pJ for one measured window."""

    by_component: dict
    cycles: int
    clock_hz: float

    @property
    def total_pj(self) -> float:
        return sum(self.by_component.values())

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    @property
    def seconds(self) -> float:
        return self.cycles / self.clock_hz

    def power_mw(self, component: str = None) -> float:
        """Average power over the window, total or per component."""
        if self.seconds == 0:
            return 0.0
        pj = (
            self.total_pj if component is None
            else self.by_component.get(component, 0.0)
        )
        return pj * 1e-12 / self.seconds * 1e3



class EnergyModel:
    """Folds event tallies into energies with a given table."""

    #: Per-delta memo capacity (distinct static block deltas are few).
    _DELTA_MEMO_CAP = 4096

    def __init__(self, table: EnergyTable, clock_hz: float = 80e6) -> None:
        self.table = table
        self.clock_hz = clock_hz
        self._delta_memo = {}

    def _fold_events(self, items, by_component: dict) -> dict:
        """Add each event's ``count x pJ`` to its component, in ``items`` order.

        The one event -> component loop behind :meth:`report` and the
        memoized delta fold: equal ``(event, count)`` sequences fold to
        bit-identical floats.
        """
        for name, count in items:
            component = COMPONENT_OF_EVENT.get(name)
            if component is None or name == Ev.CPU_CYCLE:
                continue
            by_component[component] = by_component.get(component, 0.0) \
                + count * self.table.event_energy(name)
        return by_component

    def _delta_components(self, delta: tuple) -> dict:
        """Per-component pJ of ONE execution of a static event delta.

        Memoized on the delta tuple: launch deltas of deterministic
        kernels repeat, so the fold multiplies cached component vectors
        instead of walking events.
        """
        folded = self._delta_memo.get(delta)
        if folded is None:
            folded = self._fold_events(delta, {})
            if len(self._delta_memo) >= self._DELTA_MEMO_CAP:
                self._delta_memo.clear()
            self._delta_memo[delta] = folded
        return folded

    def fold_histogram(
        self,
        histogram,
        cycles: int = 0,
        powered_components=(),
    ) -> EnergyReport:
        """Energy of a histogram of event deltas (per-kernel energy).

        ``histogram`` iterates ``(delta, count)`` pairs — an event delta
        ``((event, count), ...)`` in sorted event-name order (as
        :attr:`repro.core.RunResult.events` carries a launch's) and how
        many times it occurred. Each distinct delta is folded to a
        per-component pJ vector once and cached; leakage is charged for
        ``powered_components`` over ``cycles`` exactly like
        :meth:`report`. A single ``(delta, 1)`` pair folds bit-identically
        to :meth:`report` of the same events without leakage, so equal
        launch deltas give equal energy on every engine.
        """
        by_component = {}
        for delta, count in histogram:
            for component, pj in self._delta_components(delta).items():
                by_component[component] = by_component.get(component, 0.0) \
                    + pj * count
        for component in powered_components:
            leak = self.table.leakage_pj_per_cycle.get(component, 0.0)
            by_component[component] = by_component.get(component, 0.0) \
                + leak * cycles
        return EnergyReport(
            by_component=by_component, cycles=cycles, clock_hz=self.clock_hz
        )

    def report(
        self,
        events: dict,
        cycles: int,
        powered_components=VWR2A_COMPONENTS,
        cpu_active_cycles: int = 0,
        cpu_sleep_cycles: int = 0,
    ) -> EnergyReport:
        """Energy of a window of ``cycles`` with activity ``events``.

        ``events`` is an event-count dict (e.g. ``EventCounters.diff``);
        ``powered_components`` lists the components whose leakage is
        charged for the whole window. Events fold in sorted name order,
        so equal event counts give bit-identical energy whatever order
        the engine inserted them in.
        """
        by_component = self._fold_events(sorted(events.items()), {})

        def add(component: str, pj: float) -> None:
            by_component[component] = by_component.get(component, 0.0) + pj

        for component in powered_components:
            leak = self.table.leakage_pj_per_cycle.get(component, 0.0)
            add(component, leak * cycles)
        if cpu_active_cycles:
            add("cpu", cpu_active_cycles * self.table.cpu_pj_per_cycle)
        if cpu_sleep_cycles:
            add("cpu", cpu_sleep_cycles * self.table.cpu_sleep_pj_per_cycle)
        return EnergyReport(
            by_component=by_component, cycles=cycles, clock_hz=self.clock_hz
        )

    def vwr2a_report(self, events: dict, cycles: int) -> EnergyReport:
        """VWR2A-only view (the paper's Table 3 scope)."""
        filtered = {
            name: count for name, count in events.items()
            if COMPONENT_OF_EVENT.get(name) in VWR2A_COMPONENTS
        }
        return self.report(
            filtered, cycles, powered_components=VWR2A_COMPONENTS
        )

    def accel_report(self, events: dict, cycles: int) -> EnergyReport:
        """FFT-accelerator-only view."""
        filtered = {
            name: count for name, count in events.items()
            if COMPONENT_OF_EVENT.get(name) in ACCEL_COMPONENTS
        }
        return self.report(
            filtered, cycles, powered_components=ACCEL_COMPONENTS
        )

    def cpu_energy_uj(self, cycles: int) -> float:
        """Energy of a CPU-only phase."""
        return cycles * self.table.cpu_pj_per_cycle * 1e-6
