"""Kernel execution orchestration on the host SoC.

Mirrors the software flow of Sec. 4.2: the CPU stages data from system
SRAM into the SPM through VWR2A's DMA (word-granular, so permutations like
the FFT's bit-reversal or the FIR's overlapped layout are free to
*arrange*), launches kernels over the slave port, sleeps until the
completion interrupt, and stages results back. The runner keeps a cycle
ledger per phase and event snapshots so benchmarks can report energy per
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch import ArchSpec
from repro.core.errors import ConfigurationError
from repro.soc.platform import BiosignalSoC


@dataclass
class KernelRun:
    """Cycle ledger of one staged kernel execution."""

    name: str
    dma_in_cycles: int = 0
    config_cycles: int = 0
    compute_cycles: int = 0
    dma_out_cycles: int = 0
    events: dict = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return (
            self.dma_in_cycles + self.config_cycles
            + self.compute_cycles + self.dma_out_cycles
        )


@dataclass(frozen=True)
class RunnerFactory:
    """Picklable recipe for building a :class:`KernelRunner`.

    A live runner drags an entire simulated platform behind it and is not
    meant to cross process boundaries; pool workers
    (:class:`~repro.serve.PoolScheduler`) instead receive this factory
    and build their own platform instance on their side of the fork.
    ``engine`` follows the :class:`KernelRunner` constructor (``None``
    keeps the SoC default, ``"auto"``); ``spec`` selects the design point
    (``None`` keeps the paper's default :class:`~repro.arch.ArchSpec`) —
    specs are frozen dataclasses, so the factory stays picklable and two
    workers built from equal factories simulate identical platforms.
    """

    engine: str = None
    spec: ArchSpec = None

    def __call__(self) -> "KernelRunner":
        return KernelRunner(engine=self.engine, spec=self.spec)



class KernelRunner:
    """Stages data, launches kernels, and keeps the books."""

    def __init__(self, soc: BiosignalSoC = None, engine: str = None,
                 spec: ArchSpec = None) -> None:
        if soc is None:
            kwargs = {}
            if engine is not None:
                kwargs["engine"] = engine
            if spec is not None:
                kwargs["spec"] = spec
            soc = BiosignalSoC(**kwargs)
        else:
            if engine is not None and soc.vwr2a.engine != engine:
                raise ConfigurationError(
                    f"runner engine {engine!r} conflicts with the provided "
                    f"SoC's engine {soc.vwr2a.engine!r}"
                )
            if spec is not None and soc.spec != spec:
                raise ConfigurationError(
                    f"runner spec {spec.describe()} conflicts with the "
                    f"provided SoC's spec {soc.spec.describe()}"
                )
        self.soc = soc
        self.soc.with_accelerators()
        self._sram_base = 0
        self._sram_limit = self.soc.sram.n_words
        self._sram_next = 0
        #: Blocks taken with :meth:`reserve_sram`: words -> address.
        self._reserved = {}
        #: Cumulative DMA cycles spent staging in/out through this runner;
        #: ``repro.serve`` diffs it per window for its pipelining model.
        self.staging_cycles = {"in": 0, "out": 0}
        #: When set to a list, every ``launch`` appends its RunResult —
        #: how the stream scheduler observes per-window engine decisions.
        self.launch_log = None
        #: When set to a callable, it runs right before every kernel
        #: launch with the kernel name — the injection point
        #: :class:`repro.faults.FaultInjector` uses to land SPM upsets
        #: and reassert stuck-at cells at launch boundaries.
        self.fault_hook = None

    @property
    def spec(self) -> ArchSpec:
        """The design point of the underlying platform."""
        return self.soc.spec

    # -- SRAM staging ----------------------------------------------------------

    def sram_alloc(self, n_words: int) -> int:
        """Reserve a block of system SRAM; returns its word address."""
        if n_words < 0:
            raise ConfigurationError(
                f"SRAM allocation of a negative size ({n_words} words)"
            )
        base = self._sram_next
        if base + n_words > self._sram_limit:
            raise ConfigurationError(
                f"SRAM overflow: need {n_words} words at {base} "
                f"(staging region [{self._sram_base}, {self._sram_limit}))"
            )
        self._sram_next = base + n_words
        return base

    @property
    def sram_region(self) -> tuple:
        """The staging region as ``(base, n_words)`` (the whole SRAM by
        default)."""
        return self._sram_base, self._sram_limit - self._sram_base

    def set_sram_region(self, base: int, n_words: int) -> None:
        """Constrain the staging allocator to ``[base, base + n_words)``.

        Resets the bump pointer to ``base``. SRAM below ``base`` is left
        alone by staging: the stream scheduler rewinds to the region it
        found before every window and restores it after the stream. DMA
        cost is purely length-based, so where the region sits changes no
        cycle or event accounting.
        """
        if n_words <= 0:
            raise ConfigurationError(
                f"SRAM staging region needs a positive size, got {n_words}"
            )
        if base < 0 or base + n_words > self.soc.sram.n_words:
            raise ConfigurationError(
                f"SRAM staging region [{base}, {base + n_words}) exceeds "
                f"the {self.soc.sram.n_words}-word SRAM"
            )
        self._sram_base = base
        self._sram_limit = base + n_words
        self._sram_next = base
        self._reserved = {}

    def reserve_sram(self, words) -> int:
        """Park ``words`` in system SRAM out of staging; returns the word
        address of the block that holds them.

        The block is allocated like :meth:`sram_alloc` and filled, then
        the staging region restarts above it, so :meth:`reset_sram` and
        later staging never overwrite it. Engines park their SRAM
        twiddle tables here. A block that already holds the same words
        on this runner is returned instead of a copy, so engines built
        over and over on one runner share their tables. Blocks are
        released only when the region is set again
        (:meth:`set_sram_region`), as a stream scheduler does before
        every window.
        """
        words = tuple(words)
        sram = self.soc.sram
        reserved = self._reserved
        base = reserved.get(words)
        if base is not None \
                and sram.peek_words(base, len(words)) == list(words):
            return base
        base = self.sram_alloc(len(words))
        sram.poke_words(base, words)
        # Moving the region forgets the blocks below it; those taken
        # here stay held.
        self.set_sram_region(base + len(words),
                             self._sram_limit - base - len(words))
        reserved[words] = base
        self._reserved = reserved
        return base

    def reset_sram(self) -> None:
        """Rewind the SRAM bump allocator to its region base.

        Staging buffers are transient; a multi-window flow on one runner
        calls this between windows to reuse the staging area instead of
        overflowing. Blocks taken with :meth:`reserve_sram` sit below
        the region base and survive the rewind.
        """
        self._sram_next = self._sram_base

    def stage_in(self, values, spm_word: int, order=None) -> int:
        """Host data -> SRAM -> SPM (optionally permuted/gathered).

        ``order`` maps SPM offset -> source index within ``values``;
        the DMA gather implements it at no extra cost per word.
        Returns DMA cycles.
        """
        base = self.sram_alloc(len(values))
        self.soc.sram.poke_words(base, values)
        if order is None:
            cycles = self.soc.dma_to_vwr2a(base, spm_word, len(values))
        else:
            src_words = [base + index for index in order]
            cycles = self.soc.vwr2a.dma.to_spm_gather(
                self.soc.sram, src_words, spm_word
            )
            self.soc.cpu.sleep(cycles)
            self.soc.power.advance(cycles)
        self.staging_cycles["in"] += cycles
        return cycles

    def stage_out(self, spm_word: int, n_words: int, order=None):
        """SPM -> SRAM (optionally gathered); returns (values, cycles)."""
        base, cycles = self.stage_out_sram(spm_word, n_words, order)
        return self.soc.sram.peek_words(base, n_words), cycles

    def stage_out_sram(self, spm_word: int, n_words: int, order=None):
        """:meth:`stage_out` that reports where the words now sit in SRAM
        instead of reading them back; returns (SRAM word, cycles)."""
        base = self.sram_alloc(n_words)
        if order is None:
            cycles = self.soc.dma_from_vwr2a(spm_word, base, n_words)
        else:
            src_words = [spm_word + index for index in order]
            cycles = self.soc.vwr2a.dma.from_spm_gather(
                self.soc.sram, src_words, base
            )
            self.soc.cpu.sleep(cycles)
            self.soc.power.advance(cycles)
        self.staging_cycles["out"] += cycles
        return base, cycles

    # -- kernel launch -----------------------------------------------------------

    def store(self, config) -> None:
        """Store a kernel configuration (once per config object).

        Re-storing the held object (the historical double-store flow of
        ``store`` + ``Vwr2a.execute``) is deduplicated outright, and a
        config stamped by an earlier store is not re-validated,
        re-encoded or hazard-checked — see ``soc.vwr2a.config_mem.stats``.
        """
        self.soc.vwr2a.store_kernel(config)

    def launch(self, name: str, max_cycles: int = None):
        """Run a stored kernel; returns the simulator's RunResult.

        Configuration cycles are charged exactly once per launch (by
        ``Vwr2a.run``'s single install), however many times the kernel
        was stored beforehand; ``RunResult.engine`` records whether the
        launch ran compiled or fell back to the reference interpreter.
        """
        if self.fault_hook is not None:
            self.fault_hook(name)
        result = self.soc.run_vwr2a_kernel(name, max_cycles=max_cycles)
        if self.launch_log is not None:
            self.launch_log.append(result)
        return result

    def execute(self, config, max_cycles: int = None):
        self.store(config)
        return self.launch(config.name, max_cycles=max_cycles)

    def warm(self, pipeline, samples) -> None:
        """Run one throwaway window to pre-warm the per-platform caches.

        Builds and stores every kernel this runner's platform will hit in
        steady state and builds its launch record (compiled programs,
        SPM-conflict verdict), then restores the staging region it found.
        Per-window results are history-independent (the serving layer's
        core determinism property), so warming changes
        nothing about subsequently served windows; pool workers use this
        hook to take the cold-cache cost before their first real window.
        The launch log is suspended so the warm-up leaves no trace in
        per-window reports.
        """
        log = self.launch_log
        region = self.sram_region
        self.launch_log = None
        try:
            pipeline(self, samples)
        finally:
            self.launch_log = log
            self.set_sram_region(*region)

    def events_snapshot(self) -> dict:
        return self.soc.events.snapshot()

    def events_since(self, snapshot: dict) -> dict:
        return self.soc.events.diff(snapshot)
