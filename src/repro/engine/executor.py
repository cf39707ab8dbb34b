"""Kernel execution: the conflict-aware compiled path and the reference loop.

:func:`run_launch` executes one launch of :class:`repro.core.cgra.Vwr2a`
from its :class:`Launch` record — built at a config object's first
launch on an array, it holds everything a warm launch reads — and
returns the launch's :class:`~repro.core.cgra.RunResult`. The record
already says which path runs:

* the **reference** path — the original cycle-by-cycle interpreter
  (``Column.step`` per column per cycle), the golden model — runs every
  launch on ``engine="reference"`` (a record with no SPM verdict) and
  every launch whose columns conflict;
* the **compiled** path calls the one generated function of each
  column's :class:`~repro.engine.compiler.CompiledProgram`, bound to the
  column's storage in the launch record, which runs the column to EXIT
  (forward edges fall through, back edges loop; each closed-form loop
  runs as one counted loop in its own loop function, bound with it, see
  :mod:`repro.engine.superblocks`).
  Event counting happens as per-block execution counts folded
  into the shared :class:`~repro.core.events.EventCounters` once per
  launch (:meth:`Launch.fold`, a walk of the blocks' static deltas
  memoized per count vectors on the record) — bit-identical to
  per-cycle logging because every bundle's event delta is static (see
  :mod:`repro.engine.deltas`). The counts also fix the launch's
  result, so the memo keeps it: a repeat returns the stored
  ``RunResult``.

The record also keeps each column's initial SRF wrapped to int32 once,
the form ``Column.load`` writes as it is on every launch.

Multi-column kernels run one column after another: each column's
generated function runs to EXIT in turn, and the launch takes as many
cycles as its longest column. The static cross-column SPM analysis
(:mod:`repro.engine.conflicts`) proves per launch that no column writes
an SPM word another column reads or writes; everything else a column
touches is private to it, so no column can observe when another one
ran. Kernels that *do* communicate through the SPM mid-kernel run on the
reference interpreter instead, bit-identically to ``engine="reference"``.

Both paths report the launch's own event delta (``RunResult.events``,
``((event, count), ...)`` in sorted event-name order) — the one record
per-kernel energy folds from, whichever engine executed.

Aborted launches (``AddressError`` / ``ProgramError``) are rewound to the
pre-launch snapshot and replayed cycle-by-cycle on the reference
interpreter, so events and column state after a fault are bit-identical
to per-cycle execution — not just block-aligned. The snapshot holds the
active columns' state and only the SPM words the launch may write: the
slices the launch record takes from the columns' write footprints
(``ConflictReport.write_slices``), or the whole SPM when a column's
writes are unbounded. The generated code checks
the cycle budget only at back edges, counted-loop entry and EXIT, so a
run may pass the budget by a few blocks before it stops; the replay
makes that invisible too. A closed-form loop whose
counter would leave int32 bails the same way and returns the reference
result; any other interruption just rewinds.
"""

from __future__ import annotations

from functools import partial

# ``Vwr2a`` imports this module: its ``RunResult`` is read at call time.
from repro.core import cgra
from repro.core.alu import _simd16
from repro.core.column import srf_pairs
from repro.core.errors import AddressError, ProgramError
from repro.core.events import Ev
from repro.core.shuffle import shuffler
from repro.engine.compiler import compile_program
from repro.engine.conflicts import analyze_columns
from repro.isa.fields import ShuffleMode, Vwr
from repro.isa.rc import RCOp
from repro.utils.memo import remember


def _budget_error(name: str, max_cycles: int) -> ProgramError:
    return ProgramError(
        f"kernel {name!r} exceeded {max_cycles} cycles; "
        "missing EXIT or diverging loop?"
    )


def _past_end_error(column_index: int, pc: int) -> ProgramError:
    return ProgramError(
        f"column {column_index}: PC {pc} ran past the program "
        "without an EXIT"
    )


def _raise_srf(entry: int, n_entries: int):
    raise AddressError(f"SRF entry {entry} out of range [0, {n_entries})")


#: The SIMD16 lane ops the generated code calls, bound once.
_SIMD16 = {
    "_s16a": partial(_simd16, RCOp.SADD16),
    "_s16s": partial(_simd16, RCOp.SSUB16),
    "_s16m": partial(_simd16, RCOp.FXPMUL16),
}


class _CounterWrap(Exception):
    """``(column, loop PC)``: a closed-form loop's counter would leave
    int32, so its trip count does not hold (no paper kernel gets here)."""


def _lockstep(vwr2a, launch, max_cycles, **extra) -> RunResult:
    """Step the active columns cycle by cycle (``Column.step``) to EXIT;
    ``extra`` goes on the reference result."""
    events = vwr2a.events
    before = events.snapshot()
    active = launch.active
    cycles = 0
    while any(not col.done for col in active):
        if cycles >= max_cycles:
            raise _budget_error(launch.config.name, max_cycles)
        for col in active:
            col.step()
        cycles += 1
    return launch.result(
        "reference", cycles, tuple(sorted(events.diff(before).items())),
        **extra,
    )


class BoundColumn:
    """A compiled program bound to one column's storage.

    Binding executes the generated code once, capturing the column's SRF
    / VWR / SPM backing lists and register files as default arguments of
    its function, ``fn(limit, counts)``, and of each loop function that
    function calls (bound under its program's name for it, ``_lp{i}``);
    re-running the same kernel afterwards only starts a fresh count
    vector. Each shuffle mode binds as ``_shuf{mode}`` to the shuffle
    unit's gather for the column's geometry
    (:func:`~repro.core.shuffle.shuffler`, memoized per process).
    """

    def __init__(self, column, compiled) -> None:
        self.column = column
        self.compiled = compiled
        namespace = self._namespace(column)
        for i, loop in enumerate(compiled.loops):
            exec(loop.code, namespace)
            namespace[f"_lp{i}"] = namespace.pop("_loop")
        exec(compiled.code, namespace)
        self.fn = namespace["_run"]
        #: Execution count per basic block (a closed-form loop's block
        #: counts its trips), then one entry count per closed-form loop.
        self.counts = [0] * (len(compiled.blocks) + sum(
            blk.closed_form for blk in compiled.blocks
        ))

    @staticmethod
    def _namespace(column) -> dict:
        g = {
            "col": column,
            "S": column.srf._data,
            "M": column.spm._data,
            "VA": column.vwrs[Vwr.A]._data,
            "VB": column.vwrs[Vwr.B]._data,
            "VC": column.vwrs[Vwr.C]._data,
            "O": column.rc_out,
            "L": column.lcu_regs,
            "AddressError": AddressError,
            "_CounterWrap": _CounterWrap,
            "_past_end_error": _past_end_error,
            "_raise_srf": _raise_srf,
            **_SIMD16,
        }
        for i, regs in enumerate(column.rc_regs):
            g[f"R{i}"] = regs
        params = column.params
        for mode in ShuffleMode:
            g[f"_shuf{int(mode)}"] = shuffler(
                mode, params.vwr_words, params.slice_words
            )
        return g

    def run_to_exit(self, kernel_name: str, max_cycles: int) -> int:
        """Run the column to EXIT and leave it there; returns its cycles.
        An abort leaves the column mid-run, for the caller to rewind."""
        self.counts = counts = [0] * len(self.counts)
        steps = self.fn(max_cycles, counts)
        if steps > max_cycles:
            raise _budget_error(kernel_name, max_cycles)
        column = self.column
        column.steps, column.done = steps, True
        return steps

    def pc_histogram(self) -> list:
        """Per-PC executed-bundle counts (diagnostics / tests)."""
        histogram = [0] * self.compiled.n_bundles
        for blk in self.compiled.blocks:
            count = self.counts[blk.index]
            if count:
                for pc in range(blk.leader, blk.leader + blk.n_cycles):
                    histogram[pc] += count
        return histogram


class Launch:
    """One configuration's launch record on one array.

    ``Vwr2a.run`` builds it at the config object's first launch on that
    array and keeps it (``Vwr2a.LAUNCH_CAP``); it holds everything a warm
    launch reads: the active columns, each with its program and that
    program's initial SRF wrapped to int32 once (the load
    ``Column.load`` writes as it is), the configuration load's
    ``{config.word, srf.write}`` tally and cycles, the SPM-conflict
    verdict (``None`` on the reference engine), the columns' bound
    programs when the verdict is conflict-free with the SPM slices the
    launch may write (its snapshot), and the memo of compiled launches'
    event folds and results.
    """

    #: Launch folds kept (keyed on the count vectors, FIFO-evicted).
    FOLD_CAP = 256

    def __init__(self, vwr2a, config, analyze: bool) -> None:
        params = vwr2a.params
        programs = config.columns.values()
        self.config = config
        self.active = [vwr2a.columns[col] for col in config.columns]
        self.programs = [
            (col, program, srf_pairs(program))
            for col, program in zip(self.active, programs)
        ]
        self.load = {
            Ev.CONFIG_WORD: sum(len(p.bundles) for p in programs),
            Ev.SRF_WRITE: sum(len(p.srf_init) for p in programs),
        }
        self.config_cycles = config.load_cycles(params)
        self.report = analyze_columns(config.columns, params) \
            if analyze else None
        self.bounds = self.spm_slices = None
        if self.report is not None and not self.report.conflicts:
            self.bounds = [
                BoundColumn(col, compile_program(program, params))
                for col, program, _ in self.programs
            ]
            #: Half-open ``(start, stop)`` slices of every SPM word the
            #: compiled launch may write: what its snapshot copies.
            self.spm_slices = self.report.write_slices(params.spm_words)
        self.folds = {}

    def result(self, engine, cycles, events, **extra) -> RunResult:
        return cgra.RunResult(
            name=self.config.name,
            cycles=cycles,
            config_cycles=self.config_cycles,
            column_steps={col.index: col.steps for col in self.active},
            engine=engine,
            events=events,
            **extra,
        )

    def fold(self, cycles: int) -> tuple:
        """The compiled launch's event totals and result, memoized per
        count vectors.

        Deterministic kernels repeat their execution histograms launch
        after launch, so one walk of the executed blocks' static
        deltas serves every repeat. Returns ``(totals, result)``: the
        ``{event: count}`` update for the shared tally, inserted in
        sorted event-name order (so the tally's order, and every float
        sum downstream, depends only on the events that ticked), and the
        launch's :class:`~repro.core.cgra.RunResult`, built at the first
        launch with these counts (``cycles``, the columns' steps) and
        returned as it is by every repeat: each column's steps are its
        blocks' counts times their lengths, and ``cycles`` their
        maximum, so the counts fix every field.
        """
        key = tuple(tuple(bound.counts) for bound in self.bounds)
        fold = self.folds.get(key)
        if fold is None:
            walked = {}
            loops = trips = 0
            for bound, counts in zip(self.bounds, key):
                blocks = bound.compiled.blocks
                for blk in blocks:
                    count = counts[blk.index]
                    if not count:
                        continue
                    if blk.closed_form:
                        trips += count
                    for name, n in blk.delta:
                        walked[name] = walked.get(name, 0) + n * count
                loops += sum(counts[len(blocks):])
            totals = {name: walked[name] for name in sorted(walked)}
            fold = (totals, self.result(
                "compiled", cycles, tuple(totals.items()),
                superblocks={"accelerated_loops": loops,
                             "accelerated_trips": trips},
            ))
            remember(self.folds, key, fold, self.FOLD_CAP)
        return fold


def _snapshot_launch(vwr2a, launch) -> tuple:
    """Pre-launch state of the SPM words the launch may write and of its
    active columns (no events)."""
    spm = vwr2a.spm._data
    return (
        [(start, spm[start:stop]) for start, stop in launch.spm_slices],
        [(col, col.state_snapshot()) for col in launch.active],
    )


def _restore_launch(vwr2a, snapshot) -> None:
    spm_slices, column_states = snapshot
    # In place: the bound columns' generated code holds this list.
    spm = vwr2a.spm._data
    for start, words in spm_slices:
        spm[start:start + len(words)] = words
    for col, state in column_states:
        col.state_restore(state)


def run_launch(vwr2a, launch, max_cycles) -> RunResult:
    """Execute one launch from its record and tally it on
    ``vwr2a.engine_decisions``.

    A record without a verdict (``engine="reference"``) runs on the
    reference interpreter. A conflict-free one runs compiled, one column
    after another, each to EXIT; one whose columns communicate through
    the SPM mid-kernel falls back to the reference,
    bit-identically to ``engine="reference"``, with the decision on
    ``RunResult.fallback_reason`` / ``RunResult.spm_conflicts``. Aborted
    compiled launches replay on the reference from the pre-launch
    snapshot, so fault-path events and state are exact. The tally counts
    the path that executed: a compiled fault as compiled, a counter-wrap
    replay as reference.
    """
    decisions = vwr2a._decisions
    bounds = launch.bounds
    if bounds is None:
        decisions["reference"] += 1
        report = launch.report
        if report is None:
            return _lockstep(vwr2a, launch, max_cycles)
        return _lockstep(
            vwr2a, launch, max_cycles, fallback_reason=report.reason(),
            spm_conflicts=report.conflicts,
        )
    name = launch.config.name
    snapshot = _snapshot_launch(vwr2a, launch)
    try:
        # The verdict proves no column writes an SPM word another
        # reads or writes, so running each column to EXIT in turn is
        # indistinguishable from the reference's lock-step; the
        # launch lasts as long as its longest column.
        cycles = max(
            bound.run_to_exit(name, max_cycles) for bound in bounds
        )
    except _CounterWrap as wrap:
        # A loop's closed form does not hold: the launch runs, and
        # counts, on the per-cycle interpreter.
        _restore_launch(vwr2a, snapshot)
        decisions["reference"] += 1
        column, pc = wrap.args
        return _lockstep(
            vwr2a, launch, max_cycles, fallback_reason=f"column "
            f"{column}: the counter of the loop at PC {pc} leaves int32"
        )
    except (AddressError, ProgramError) as fault:
        decisions["compiled"] += 1
        # Aborted kernel: rewind to the pre-launch state and replay on
        # the per-cycle interpreter. Conflict-free kernels execute
        # deterministically, so the replay reaches the same fault —
        # the first in lock-step order, whichever column raised here —
        # with events and column state accounted cycle by cycle,
        # including the final partial bundle, exactly like the
        # reference (docs/engine.md).
        _restore_launch(vwr2a, snapshot)
        _lockstep(vwr2a, launch, max_cycles)
        # A completed replay means the two engines disagree on whether
        # the kernel faults at all — an engine bug, never silently
        # reported as the stale compiled-path exception.
        raise ProgramError(
            f"engine divergence on kernel {name!r}: the compiled "
            f"engine aborted ({fault}) but the reference replay "
            "completed; please report"
        ) from fault
    except BaseException:
        # Non-simulation aborts (e.g. KeyboardInterrupt) leave the
        # launch undone: nothing it ran is kept or counted.
        _restore_launch(vwr2a, snapshot)
        raise
    decisions["compiled"] += 1
    totals, result = launch.fold(cycles)
    vwr2a.events.add_many(totals)
    return result