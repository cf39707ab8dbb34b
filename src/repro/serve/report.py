"""Per-window and aggregate results of a served stream.

A :class:`StreamReport` is what :class:`~repro.serve.StreamScheduler.run`
returns: one :class:`WindowResult` per window (cycles, event deltas, the
kernel launches with their engine/fallback decisions, staging DMA split,
optional energy) plus stream-level aggregates — total cycles and events,
the engine decision mix, configuration-store cache deltas, and the
staging-overlap pipelining estimate.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError


def merge_counts(into: dict, delta: dict) -> dict:
    """Sum the counters of ``delta`` into ``into`` (in place) and return it.

    The arithmetic behind mergeable reports: store-cache stats and event
    tallies produced by different runners (checkpoint sessions, pool
    workers) combine by plain addition.
    """
    for name, count in delta.items():
        into[name] = into.get(name, 0) + count
    return into


def step_energy_uj(model, config: str, step) -> float:
    """Energy (µJ) of one application :class:`~repro.app.StepResult`.

    Sums the three platform contributions the Table-5 column is made of:
    the VWR2A domain (only powered in the ``cpu_vwr2a`` configuration),
    the fixed-function FFT accelerator, and the CPU's active/sleep split.
    """
    vwr2a = (
        model.vwr2a_report(step.events, step.cycles).total_uj
        if config == "cpu_vwr2a" else 0.0
    )
    accel = model.accel_report(step.events, 0).total_uj
    cpu = (step.cpu_active * model.table.cpu_pj_per_cycle
           + step.cpu_sleep * model.table.cpu_sleep_pj_per_cycle) * 1e-6
    return vwr2a + accel + cpu


def app_energy_uj(model, config: str, app) -> float:
    """Energy (µJ) of a whole :class:`~repro.app.AppResult` window."""
    return sum(
        step_energy_uj(model, config, step) for step in app.steps.values()
    )


@dataclass
class WindowResult:
    """Everything one served window produced."""

    index: int        #: window number within the stream
    start: int        #: sample offset of the window in the trace
    app: object       #: the pipeline's return value (AppResult by default)
    cycles: int       #: platform cycles the window consumed (active+sleep)
    events: dict      #: event-count delta of the window
    launches: tuple   #: RunResult of every kernel launch in the window
    staging_in_cycles: int   #: DMA cycles staging data in (SRAM -> SPM)
    staging_out_cycles: int  #: DMA cycles staging results out (SPM -> SRAM)
    energy_uj: float = None  #: modeled energy, when the scheduler has a model
    #: Datapath pJ per kernel name, folded from each launch's own event
    #: delta (``RunResult.events``) on whichever engine ran it; None when
    #: the scheduler has no energy model.
    kernel_energy_pj: dict = None

    @property
    def engine_counts(self) -> dict:
        """Launch tally by executing engine, e.g. ``{"compiled": 12}``."""
        return dict(Counter(r.engine for r in self.launches))

    @property
    def fallbacks(self) -> tuple:
        """``(kernel_name, fallback_reason)`` of reference-fallback launches."""
        return tuple(
            (r.name, r.fallback_reason)
            for r in self.launches if r.fallback_reason
        )

    @property
    def label(self):
        """The application's predicted label (None for custom pipelines)."""
        return getattr(self.app, "label", None)


@dataclass(frozen=True)
class FailedWindow:
    """A window quarantined after exhausting its retry budget.

    Quarantine is the explicit alternative to aborting the stream: the
    window's index, position and failure pedigree are preserved in
    :attr:`StreamReport.failed_windows` (and in the checkpoint, where a
    later resume gives it a fresh chance), while every other window's
    result stays valid. ``kinds`` are the fault kinds the last attempt
    detected; ``detail`` is the last failure's short description.
    """

    index: int      #: window number within the stream
    start: int      #: sample offset of the window in the trace
    attempts: int   #: serving attempts consumed (including any fallback)
    kinds: tuple    #: fault kinds detected on the final attempt
    detail: str     #: human-readable reason of the final attempt


@dataclass
class StreamReport:
    """Aggregate outcome of one served window stream."""

    config: str             #: application configuration (or pipeline repr)
    engine: str             #: the SoC's engine selection ("auto" usually)
    window: int             #: window size in samples
    hop: int                #: stride between window starts
    windows: list = field(default_factory=list)  #: WindowResult per window
    wall_seconds: float = 0.0   #: host wall-clock time spent serving
    store_stats: dict = field(default_factory=dict)  #: config-store cache delta
    #: FailedWindow per quarantined window (retry budget exhausted),
    #: index-ordered. Empty on every healthy run.
    failed_windows: list = field(default_factory=list)
    #: Resilience counters: retries, respawns, worker_deaths, hangs,
    #: quarantined, reference_recoveries, late_results, fault:<kind>...
    #: Empty when the run needed no supervision intervention.
    resilience: dict = field(default_factory=dict)

    # -- merge arithmetic ---------------------------------------------------

    def add_window(self, result: WindowResult) -> None:
        """Insert ``result`` keeping ``windows`` ordered by window index.

        Order-stable merging is what makes the report independent of
        *who* served each window: checkpoint resumes and pool workers
        complete windows out of order, but the assembled report reads
        exactly like a sequential one. Duplicate indices raise — a merge
        that serves the same window twice is a sharding bug, not a tie to
        break silently.
        """
        position = bisect_left(
            self.windows, result.index, key=lambda w: w.index
        )
        if position < len(self.windows) \
                and self.windows[position].index == result.index:
            raise ConfigurationError(
                f"window {result.index} is already in the report"
            )
        self.windows.insert(position, result)

    def merge_store_stats(self, delta: dict) -> None:
        """Sum a store-cache counter delta into :attr:`store_stats`."""
        merge_counts(self.store_stats, delta)

    def merge(self, other: "StreamReport") -> "StreamReport":
        """Absorb ``other`` (a disjoint shard of the same stream).

        Both reports must describe the same stream shape and platform
        (config, engine, window, hop); their windows must
        not overlap. Windows interleave by index, store stats add, and
        wall time accumulates (shards measured by concurrent workers are
        better timed by the pool itself). Returns ``self``.
        """
        for name in ("config", "engine", "window", "hop"):
            if getattr(self, name) != getattr(other, name):
                raise ConfigurationError(
                    f"cannot merge stream reports with different {name}: "
                    f"{getattr(self, name)!r} != {getattr(other, name)!r}"
                )
        for result in other.windows:
            self.add_window(result)
        for failed in other.failed_windows:
            self.add_failed(failed)
        merge_counts(self.resilience, other.resilience)
        self.merge_store_stats(other.store_stats)
        self.wall_seconds += other.wall_seconds
        return self

    def add_failed(self, failed: FailedWindow) -> None:
        """Record a quarantined window, keeping the list index-ordered."""
        if any(w.index == failed.index for w in self.windows) or any(
            f.index == failed.index for f in self.failed_windows
        ):
            raise ConfigurationError(
                f"window {failed.index} is already in the report"
            )
        position = bisect_left(
            self.failed_windows, failed.index, key=lambda f: f.index
        )
        self.failed_windows.insert(position, failed)

    # -- aggregates ---------------------------------------------------------

    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def n_failed(self) -> int:
        """Windows quarantined instead of served (see docs/robustness.md)."""
        return len(self.failed_windows)

    @property
    def total_cycles(self) -> int:
        """Simulated platform cycles, summed over windows (sequential)."""
        return sum(w.cycles for w in self.windows)

    @property
    def total_events(self) -> dict:
        """Event counts summed over all windows."""
        total = Counter()
        for w in self.windows:
            total.update(w.events)
        return dict(total)

    @property
    def total_energy_uj(self):
        """Total modeled energy (µJ), or None when energy was not computed."""
        energies = [w.energy_uj for w in self.windows]
        if not energies or any(e is None for e in energies):
            return None
        return sum(energies)

    @property
    def engine_counts(self) -> dict:
        """Stream-wide launch tally by executing engine."""
        total = Counter()
        for w in self.windows:
            total.update(Counter(r.engine for r in w.launches))
        return dict(total)

    @property
    def energy_by_kernel(self) -> dict:
        """Datapath pJ per kernel, summed over windows.

        The per-window attribution (:attr:`WindowResult.kernel_energy_pj`)
        aggregated stream-wide; empty when the stream was served without
        an energy model. Covers the column-datapath events of every launch,
        whichever engine executed it — leakage, staging DMA and CPU energy
        remain part of the window-level ``energy_uj`` model.
        """
        total = {}
        for w in self.windows:
            if w.kernel_energy_pj:
                merge_counts(total, w.kernel_energy_pj)
        return total

    @property
    def fallbacks(self) -> tuple:
        """Every reference fallback in the stream: (window, kernel, reason)."""
        return tuple(
            (w.index, name, reason)
            for w in self.windows for name, reason in w.fallbacks
        )

    @property
    def labels(self) -> list:
        """Per-window predicted labels (the served inference output)."""
        return [w.label for w in self.windows]

    @property
    def windows_per_second(self) -> float:
        """Host-side serving throughput (windows / wall second)."""
        if self.wall_seconds <= 0.0:
            return float("inf") if self.windows else 0.0
        return self.n_windows / self.wall_seconds

    # -- staging-overlap pipelining model -----------------------------------

    @property
    def overlap_saved_cycles(self) -> int:
        """Platform cycles a double-buffered staging timeline would hide.

        With staging alternating between two SRAM buffers, window *k+1*'s
        stage-in DMA could proceed while the host drains window *k*'s
        staged-out results, so consecutive windows would overlap by
        ``min(out_k, in_k+1)`` cycles. This is a model over the per-window
        staging ledgers: the served windows themselves stage one after
        another in one region, bit-identical to sequential execution.
        """
        return sum(
            min(prev.staging_out_cycles, cur.staging_in_cycles)
            for prev, cur in zip(self.windows, self.windows[1:])
        )

    @property
    def pipelined_total_cycles(self) -> int:
        """Modeled stream makespan with the staging overlap hidden."""
        return self.total_cycles - self.overlap_saved_cycles

    # -- bit-identity -------------------------------------------------------

    def identical_to(self, other: "StreamReport",
                     engines: bool = True) -> str:
        """First simulated difference from ``other``, or ``None`` if none.

        The machine-checkable form of the serving layer's determinism
        contract, shared by the differential tests and the fault
        campaigns: compares every window's cycles, events, energy,
        staging split, kernel launch sequence and application output
        (features/labels when present). ``engines=False`` skips the
        per-launch engine decisions — a window recovered on the
        reference-fallback tier is bit-identical in everything the
        simulation produces, but honestly records which engine ran.
        """
        if [w.index for w in self.windows] \
                != [w.index for w in other.windows]:
            return (
                f"window sets differ: {[w.index for w in self.windows]} "
                f"vs {[w.index for w in other.windows]}"
            )
        for a, b in zip(self.windows, other.windows):
            for name in ("start", "cycles", "events", "energy_uj",
                         "staging_in_cycles", "staging_out_cycles",
                         "kernel_energy_pj"):
                if getattr(a, name) != getattr(b, name):
                    return (
                        f"window {a.index}: {name} differs "
                        f"({getattr(a, name)!r} vs {getattr(b, name)!r})"
                    )
            mine = [(r.name, r.cycles) for r in a.launches]
            theirs = [(r.name, r.cycles) for r in b.launches]
            if mine != theirs:
                return f"window {a.index}: launch sequence differs"
            if engines and [r.engine for r in a.launches] \
                    != [r.engine for r in b.launches]:
                return f"window {a.index}: engine decisions differ"
            if hasattr(a.app, "features"):
                if a.app.features != getattr(b.app, "features", None):
                    return f"window {a.index}: features differ"
                if a.app.label != getattr(b.app, "label", None):
                    return f"window {a.index}: label differs"
            elif a.app != b.app:
                return f"window {a.index}: app result differs"
        return None

    # -- rendering ----------------------------------------------------------

    def summary(self) -> str:
        """Human-readable multi-line digest of the stream."""
        lines = [
            f"stream: {self.n_windows} windows of {self.window} "
            f"(hop {self.hop}) under {self.config!r} [engine={self.engine}]",
            f"  cycles: {self.total_cycles} total, "
            f"{self.pipelined_total_cycles} pipelined "
            f"(-{self.overlap_saved_cycles} overlap)",
        ]
        if self.total_energy_uj is not None:
            lines.append(f"  energy: {self.total_energy_uj:.2f} uJ")
        counts = self.engine_counts
        if counts:
            mix = ", ".join(
                f"{engine}: {count}" for engine, count in sorted(counts.items())
            )
            lines.append(f"  launches: {sum(counts.values())} ({mix})")
        if self.fallbacks:
            lines.append(f"  fallbacks: {len(self.fallbacks)} "
                         f"(first: window {self.fallbacks[0][0]}, "
                         f"kernel {self.fallbacks[0][1]!r})")
        if self.store_stats:
            lines.append(
                "  store cache: "
                f"{self.store_stats.get('dedup_hits', 0)} dedup hits, "
                f"{self.store_stats.get('encode_misses', 0)} encode misses, "
                f"{self.store_stats.get('hazard_misses', 0)} hazard misses"
            )
        if self.failed_windows:
            first = self.failed_windows[0]
            lines.append(
                f"  quarantined: {self.n_failed} windows "
                f"(first: window {first.index} after {first.attempts} "
                f"attempts, {first.detail})"
            )
        if self.resilience:
            mix = ", ".join(
                f"{name}: {count}"
                for name, count in sorted(self.resilience.items())
            )
            lines.append(f"  resilience: {mix}")
        if self.wall_seconds:
            lines.append(
                f"  host: {self.wall_seconds:.3f} s wall "
                f"({self.windows_per_second:.1f} windows/s)"
            )
        return "\n".join(lines)
