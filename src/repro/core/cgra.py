"""The VWR2A top level (Fig. 1).

Glues together the two columns, the shared SPM, the configuration memory,
the synchronizer and the DMA. The host-facing API is the one the SoC uses
over the slave port: store kernel configurations, launch kernels, trigger
DMA transfers, and receive completion interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import DEFAULT_PARAMS, ArchParams, ArchSpec
from repro.core.column import Column
from repro.core.config_mem import ConfigurationMemory
from repro.core.dma import Dma
from repro.core.errors import ConfigurationError
from repro.core.events import Ev, EventCounters
from repro.core.spm import Scratchpad
from repro.core.synchronizer import Synchronizer
from repro.isa.program import KernelConfig


@dataclass(frozen=True)
class RunResult:
    """Outcome of one kernel execution on the array."""

    name: str
    cycles: int            #: execution cycles (excludes configuration load)
    config_cycles: int     #: cycles spent loading the configuration words
    column_steps: dict     #: per-column executed-bundle counts
    engine: str = ""       #: engine that actually executed the kernel
    fallback_reason: str = None   #: why ``auto`` chose the reference path
    spm_conflicts: tuple = ()     #: SpmConflict records behind the fallback
    superblocks: dict = None      #: closed-form loop counters (compiled runs)
    events: tuple = ()     #: ((event, count), ...) of the launch, sorted

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.config_cycles

    def energy_pj(self, model) -> dict:
        """Per-component pJ of this launch's datapath activity.

        Folded from the launch's own event delta, so it is the same on
        every engine; leakage and staging energy are window-level
        concerns and are deliberately not attributed here.
        """
        return model.fold_histogram(((self.events, 1),)).by_component


class Vwr2a:
    """A VWR2A instance: reconfigurable array + memories + DMA.

    ``engine`` selects how kernels execute: ``"auto"`` (the default) runs
    the compile-time cross-column SPM analysis on a configuration's first
    launch and executes conflict-free kernels on the compiled fast path
    (one column after another), falling back to the per-cycle reference
    interpreter when columns communicate through the SPM mid-kernel
    (docs/engine.md); ``"reference"`` is the original cycle-by-cycle
    interpreter (``Column.step``), kept as the golden model. Both engines
    produce identical cycle counts, event snapshots and per-launch event
    deltas; ``RunResult`` records which engine ran (``"compiled"`` or
    ``"reference"``) and why.
    """

    #: Runaway guard for kernel execution.
    DEFAULT_MAX_CYCLES = 10_000_000

    def __init__(
        self,
        params: ArchParams = DEFAULT_PARAMS,
        events: EventCounters = None,
        bus=None,
        dma_setup_cycles: int = 24,
        engine: str = "auto",
        spec: ArchSpec = None,
    ) -> None:
        from repro.engine import make_engine

        if spec is not None:
            if params is not DEFAULT_PARAMS and params != spec.arch:
                raise ConfigurationError(
                    "Vwr2a params disagree with spec.arch: pass one source "
                    "of geometry"
                )
            params = spec.arch
        else:
            spec = ArchSpec(arch=params)
        #: The full design point this instance was built from. ``params``
        #: stays the geometry projection every structural memo keys on.
        self.spec = spec
        self.params = params
        self._engine = make_engine(engine)
        self.events = events if events is not None else EventCounters()
        self.spm = Scratchpad(
            params.spm_lines, params.line_words, self.events
        )
        self.columns = [
            Column(i, params, self.spm, self.events)
            for i in range(params.n_columns)
        ]
        self.config_mem = ConfigurationMemory(params)
        self.synchronizer = Synchronizer()
        self.dma = None
        if bus is not None:
            self.attach_bus(bus, dma_setup_cycles)

    def attach_bus(self, bus, dma_setup_cycles: int = 24) -> None:
        """Connect the AHB master port: enables DMA transfers."""
        self.dma = Dma(
            self.spm, bus, self.events, setup_cycles=dma_setup_cycles
        )

    # -- configuration ------------------------------------------------------

    def store_kernel(self, config: KernelConfig) -> None:
        """Validate (including hazards) and store a kernel configuration.

        The memoized planners hand every launch the same config object,
        so the configuration memory keys on identity: re-storing the held
        object is a no-op, and a config stamped by an earlier store skips
        re-validation, re-encoding and hazard re-checks
        (``config_mem.stats`` exposes the counters).
        """
        self.config_mem.store(config)

    def _install(self, config: KernelConfig) -> int:
        """Load the column programs; charge the configuration load.

        The load's ``{config.word, srf.write}`` tally is a property of the
        config object alone, so it is computed at the config's first
        launch and stamped on it, as :meth:`_conflict_report` stamps the
        SPM-conflict verdict.
        """
        for col, program in config.columns.items():
            self.columns[col].load(program)
        stamp = config.__dict__.get("_install")
        if stamp is None:
            config_words = srf_writes = 0
            for program in config.columns.values():
                config_words += len(program.bundles)
                srf_writes += len(program.srf_init)
            stamp = config._install = (
                {Ev.CONFIG_WORD: config_words, Ev.SRF_WRITE: srf_writes},
                config_words + srf_writes,
            )
        self.events.add_many(stamp[0])
        self.synchronizer.kernel_started(config.name, config.columns.keys())
        return stamp[1]

    def _conflict_report(self, config: KernelConfig):
        """SPM-conflict verdict of ``config``, cached on the config object.

        The planners build each kernel once, so a warm launch runs the
        very :class:`KernelConfig` object stored before; stamping the
        verdict on that object makes every warm launch a plain attribute
        read — no fingerprint hashing, no memo lookup (the footprint memo
        in :mod:`repro.engine.conflicts` still backs cold misses).
        ``config_mem.stats.analysis_hits/analysis_misses`` count the cache
        behaviour.
        """
        stats = self.config_mem.stats
        cached = config.__dict__.get("_analysis")
        if cached is not None and cached[0] is self.params:
            stats.analysis_hits += 1
            return cached[1]
        stats.analysis_misses += 1
        if len(config.columns) > 1:
            from repro.engine.conflicts import analyze_columns

            report = analyze_columns(config.columns, self.params)
        else:
            from repro.engine.conflicts import EMPTY_REPORT

            report = EMPTY_REPORT
        config._analysis = (self.params, report)
        return report

    # -- execution -----------------------------------------------------------

    @property
    def engine(self) -> str:
        """Name of the active execution engine."""
        return self._engine.name

    @property
    def engine_decisions(self) -> dict:
        """Lifetime launch tally by the engine that actually executed.

        ``{"compiled": n, "reference": m}`` — under ``engine="auto"`` the
        split shows how many launches the SPM-conflict analysis kept on
        the fast path; ``repro.serve`` reports the same split per stream
        from its launch log.
        """
        return dict(self._engine.decisions)

    def run(self, name: str, max_cycles: int = None) -> RunResult:
        """Load and execute a stored kernel to completion.

        The only launch path: installs the configuration (charging its
        load once) and hands the engine the conflict verdict stamped on
        the config — ``None`` for the reference engine, which never needs
        one.
        """
        if max_cycles is None:
            max_cycles = self.DEFAULT_MAX_CYCLES
        # Single configuration fetch: _install reuses it for the load,
        # and the conflict verdict rides on the stored config object.
        config = self.config_mem.get(name)
        report = self._conflict_report(config) \
            if self._engine.name != "reference" else None
        config_cycles = self._install(config)
        active = [self.columns[col] for col in config.columns]
        info = self._engine.run_kernel(self, name, active, max_cycles, report)
        self.synchronizer.kernel_finished(
            name, info.cycles, config.columns.keys()
        )
        return RunResult(
            name=name,
            cycles=info.cycles,
            config_cycles=config_cycles,
            column_steps={col.index: col.steps for col in active},
            engine=info.engine,
            fallback_reason=info.fallback_reason,
            spm_conflicts=tuple(info.conflicts),
            superblocks=info.superblocks,
            events=info.events,
        )

    def execute(self, config: KernelConfig, max_cycles: int = None) -> RunResult:
        """Store + run in one call (convenience for tests and examples)."""
        self.store_kernel(config)
        return self.run(config.name, max_cycles=max_cycles)

    # -- DMA convenience ------------------------------------------------------

    def dma_to_spm(self, sram, src_word: int, dst_word: int, n: int) -> int:
        self._need_dma()
        cycles = self.dma.to_spm(sram, src_word, dst_word, n)
        self.synchronizer.dma_finished()
        return cycles

    def dma_from_spm(self, sram, src_word: int, dst_word: int, n: int) -> int:
        self._need_dma()
        cycles = self.dma.from_spm(sram, src_word, dst_word, n)
        self.synchronizer.dma_finished()
        return cycles

    def _need_dma(self) -> None:
        if self.dma is None:
            raise ConfigurationError(
                "no bus attached: construct Vwr2a(bus=...) or call "
                "attach_bus() before using the DMA"
            )
