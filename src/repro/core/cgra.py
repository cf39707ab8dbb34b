"""The VWR2A top level (Fig. 1).

Glues together the two columns, the shared SPM, the configuration memory,
the synchronizer and the DMA. The host-facing API is the one the SoC uses
over the slave port: store kernel configurations, launch kernels, trigger
DMA transfers, and receive completion interrupts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.arch import DEFAULT_PARAMS, ArchParams, ArchSpec
from repro.core.column import Column
from repro.core.config_mem import ConfigurationMemory
from repro.core.dma import Dma
from repro.core.errors import ConfigurationError
from repro.core.events import EventCounters
from repro.core.spm import Scratchpad
from repro.core.synchronizer import Synchronizer
from repro.engine import executor
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
    launch on this array and executes conflict-free kernels on the
    compiled fast path (one column after another), falling back to the
    per-cycle reference interpreter when columns communicate through the
    SPM mid-kernel (docs/engine.md); ``"reference"`` is the original
    cycle-by-cycle interpreter (``Column.step``), kept as the golden
    model. Both engines produce identical cycle counts, event snapshots
    and per-launch event deltas; ``RunResult`` records which engine ran
    (``"compiled"`` or ``"reference"``) and why.
    """

    #: Runaway guard for kernel execution.
    DEFAULT_MAX_CYCLES = 10_000_000
    #: Launch records kept (keyed on the config object, FIFO-evicted).
    LAUNCH_CAP = 128

    def __init__(
        self,
        params: ArchParams = DEFAULT_PARAMS,
        events: EventCounters = None,
        bus=None,
        dma_setup_cycles: int = 24,
        engine: str = "auto",
        spec: ArchSpec = None,
    ) -> None:
        if engine not in ("auto", "reference"):
            raise ConfigurationError(
                f"unknown engine {engine!r} "
                "(choose from ['auto', 'reference'])"
            )
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
        self._engine = engine
        #: Lifetime launch tally by executing path, kept by
        #: :func:`~repro.engine.executor.run_launch`.
        self._decisions = Counter()
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
        #: ``id(config)`` -> its launch record on this array; the record
        #: holds the config, so the id cannot be reused while it is kept.
        self._launches = {}
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

    # -- execution -----------------------------------------------------------

    @property
    def engine(self) -> str:
        """Name of the active execution engine."""
        return self._engine

    @property
    def engine_decisions(self) -> dict:
        """Lifetime launch tally by the engine that actually executed.

        ``{"compiled": n, "reference": m}`` — under ``engine="auto"`` the
        split shows how many launches the SPM-conflict analysis kept on
        the fast path; ``repro.serve`` reports the same split per stream
        from its launch log.
        """
        return dict(self._decisions)

    def run(self, name: str, max_cycles: int = None) -> RunResult:
        """Load and execute a stored kernel to completion.

        The only launch path: fetches the config, gets or builds its
        launch record (:class:`~repro.engine.executor.Launch`), loads the
        column programs, charges the configuration load and executes
        the record (:func:`~repro.engine.executor.run_launch`), which
        returns the launch's result.
        """
        if max_cycles is None:
            max_cycles = self.DEFAULT_MAX_CYCLES
        config = self.config_mem.get(name)
        stats = self.config_mem.stats
        launches = self._launches
        launch = launches.get(id(config))
        if launch is None:
            stats.analysis_misses += 1
            launch = executor.Launch(self, config,
                                     self._engine != "reference")
            if len(launches) >= self.LAUNCH_CAP:
                del launches[next(iter(launches))]
            launches[id(config)] = launch
        else:
            stats.analysis_hits += 1
        for col, program in launch.programs:
            col.load(program)
        self.events.add_many(launch.load)
        result = executor.run_launch(self, launch, max_cycles)
        self.synchronizer.kernel_finished(name, result.cycles, config.columns)
        return result

    def execute(self, config: KernelConfig, max_cycles: int = None) -> RunResult:
        """Store + run in one call (convenience for tests and examples)."""
        self.store_kernel(config)
        return self.run(config.name, max_cycles=max_cycles)
