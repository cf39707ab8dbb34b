"""Execution engines: the conflict-aware compiled path and the reference loop.

Two interchangeable engines drive kernel execution for
:class:`repro.core.cgra.Vwr2a`:

* :class:`ReferenceEngine` — the original cycle-by-cycle interpreter
  (``Column.step`` per column per cycle). It is the golden model.
* :class:`AutoEngine` — binds each column's
  :class:`~repro.engine.compiler.CompiledProgram` to the column's storage
  and calls its one generated function, which runs the column to EXIT
  (forward edges fall through, back edges loop; closed-form loops run
  as one counted loop, see :mod:`repro.engine.superblocks`).
  Event counting happens as per-superblock execution counts folded
  into the shared :class:`~repro.core.events.EventCounters` once per
  launch (:meth:`AutoEngine._fold`, a walk of the blocks' static deltas
  memoized per distinct launch) — bit-identical to per-cycle logging
  because every bundle's event delta is static (see
  :mod:`repro.engine.deltas`).

Multi-column kernels run one column after another: each column's
generated function runs to EXIT in turn, and the launch takes as many
cycles as its longest column. The static cross-column SPM analysis
(:mod:`repro.engine.conflicts`) proves per launch that no column writes
an SPM word another column reads or writes; everything else a column
touches is private to it, so no column can observe when another one
ran. Kernels that *do* communicate through the SPM mid-kernel run on the
reference interpreter instead, bit-identically to ``engine="reference"``.

Both engines report the launch's own event delta (``RunInfo.events``,
``((event, count), ...)`` in sorted event-name order) — the one record
per-kernel energy folds from, whichever engine executed.

Aborted launches (``AddressError`` / ``ProgramError``) are rewound to the
pre-launch snapshot and replayed cycle-by-cycle on the reference
interpreter, so events and column state after a fault are bit-identical to
per-cycle execution — not just block-aligned. The generated code checks
the cycle budget only at back edges, counted-loop entry and EXIT, so a
run may pass the budget by a few blocks before it stops; the replay
makes that invisible too. A closed-form loop whose
counter would leave int32 bails the same way and returns the reference
result; any other interruption just rewinds.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, namedtuple
from functools import partial

from repro.core.alu import _simd16
from repro.core.errors import AddressError, ProgramError
from repro.core.shuffle import shuffle
from repro.engine.compiler import compile_program
from repro.isa.fields import ShuffleMode, Vwr
from repro.isa.rc import RCOp

#: What ``run_kernel`` returns: the launch's cycle count, its event
#: delta, the engine decision and the superblock accounting, surfaced on
#: ``RunResult`` by ``Vwr2a.run``. ``events`` is ``((event, count), ...)``
#: in sorted event-name order; ``superblocks`` is the accelerated-loop
#: counter dict (None on the reference path).
RunInfo = namedtuple(
    "RunInfo",
    ["engine", "cycles", "events", "fallback_reason", "conflicts",
     "superblocks"],
    defaults=(None, (), None),
)


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


class _CounterWrap(Exception):
    """``(column, loop PC)``: a closed-form loop's counter would leave
    int32, so its trip count does not hold (no paper kernel gets here)."""


def _lockstep(vwr2a, name, active, max_cycles) -> RunInfo:
    """Step the active columns cycle by cycle (``Column.step``) to EXIT."""
    events = vwr2a.events
    before = events.snapshot()
    cycles = 0
    while any(not col.done for col in active):
        if cycles >= max_cycles:
            raise _budget_error(name, max_cycles)
        for col in active:
            col.step()
        cycles += 1
    return RunInfo(
        "reference", cycles, tuple(sorted(events.diff(before).items()))
    )


class ReferenceEngine:
    """The golden per-cycle interpreter (``Column.step`` in lock-step)."""

    name = "reference"

    def __init__(self) -> None:
        #: Lifetime launch tally by executing engine (``Vwr2a.engine_decisions``).
        self.decisions = Counter()

    def run_kernel(self, vwr2a, name, active, max_cycles, report) -> RunInfo:
        # ``report`` (the conflict verdict) is accepted for interface
        # uniformity; the per-cycle interpreter never needs it.
        self.decisions["reference"] += 1
        return _lockstep(vwr2a, name, active, max_cycles)


class BoundColumn:
    """A compiled program bound to one column's storage.

    Binding executes the generated module once, capturing the column's SRF
    / VWR / SPM backing lists and register files as default arguments of
    its one function, ``fn(limit, counts)``; re-running the same kernel
    afterwards only starts a fresh count vector.
    """

    def __init__(self, column, compiled) -> None:
        self.column = column
        self.compiled = compiled
        namespace = self._namespace(column)
        exec(compiled.code, namespace)
        self.fn = namespace["_run"]
        #: Execution count per superblock, then one entry count per
        #: closed-form loop.
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
            "_s16a": partial(_simd16, RCOp.SADD16),
            "_s16s": partial(_simd16, RCOp.SSUB16),
            "_s16m": partial(_simd16, RCOp.FXPMUL16),
        }
        for i, regs in enumerate(column.rc_regs):
            g[f"R{i}"] = regs
        slice_words = column.params.slice_words
        for mode in ShuffleMode:
            g[f"_shuf{int(mode)}"] = partial(
                _mode_shuffle, mode, slice_words
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
                for leader, n_cycles in blk.members:
                    for pc in range(leader, leader + n_cycles):
                        histogram[pc] += count
        return histogram


def _mode_shuffle(mode, slice_words, a, b):
    return shuffle(a, b, mode, slice_words=slice_words)


def _snapshot_launch(vwr2a, active) -> tuple:
    """Pre-launch state of the SPM and the active columns (no events)."""
    return (
        vwr2a.spm.snapshot(),
        [(col, col.state_snapshot()) for col in active],
    )


def _restore_launch(vwr2a, snapshot) -> None:
    spm_state, column_states = snapshot
    vwr2a.spm.restore(spm_state)
    for col, state in column_states:
        col.state_restore(state)


class AutoEngine:
    """Conflict-aware engine: the compiled fast path (the default).

    ``Vwr2a.run`` hands every launch the cross-column SPM verdict stamped
    on its configuration (computed once per config object,
    ``config_mem.stats.analysis_hits/analysis_misses``): kernels proven
    conflict-free execute on the compiled fast path, one column after
    another, each to EXIT; kernels whose columns communicate through the
    SPM mid-kernel fall back to the reference interpreter,
    bit-identically to ``engine="reference"``. The decision is surfaced
    on ``RunResult.engine`` / ``RunResult.fallback_reason`` /
    ``RunResult.spm_conflicts``. Aborted compiled launches replay on the
    reference interpreter from the pre-launch snapshot, so fault-path
    events and state are exact.
    """

    name = "auto"

    #: Bound programs kept per column (identity-keyed, FIFO-evicted).
    CACHE_CAP = 128
    #: Launch event folds kept (keyed on bound programs and count
    #: vectors, FIFO-evicted).
    FOLD_CAP = 256

    def __init__(self) -> None:
        self._bound = {}
        self._folds = {}
        #: Lifetime launch tally by executing engine
        #: (``Vwr2a.engine_decisions``): a compiled fault counts as
        #: compiled, a counter-wrap replay as reference.
        self.decisions = Counter()

    def _bind(self, column) -> BoundColumn:
        compiled = compile_program(column.program, column.params)
        per_column = self._bound.setdefault(column.index, OrderedDict())
        entry = per_column.get(id(compiled))
        if entry is not None and entry[0] is compiled:
            per_column.move_to_end(id(compiled))
            return entry[1]
        bound = BoundColumn(column, compiled)
        per_column[id(compiled)] = (compiled, bound)
        if len(per_column) > self.CACHE_CAP:
            per_column.popitem(last=False)
        return bound

    def run_kernel(self, vwr2a, name, active, max_cycles, report) -> RunInfo:
        if report.conflicts:
            self.decisions["reference"] += 1
            info = _lockstep(vwr2a, name, active, max_cycles)
            return info._replace(
                fallback_reason=report.reason(), conflicts=report.conflicts
            )
        snapshot = _snapshot_launch(vwr2a, active)
        bounds = [self._bind(col) for col in active]
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
            self.decisions["reference"] += 1
            column, pc = wrap.args
            info = _lockstep(vwr2a, name, active, max_cycles)
            return info._replace(fallback_reason=f"column {column}: the "
                                 f"counter of the loop at PC {pc} leaves int32")
        except (AddressError, ProgramError) as fault:
            self.decisions["compiled"] += 1
            # Aborted kernel: rewind to the pre-launch state and replay on
            # the per-cycle interpreter. Conflict-free kernels execute
            # deterministically, so the replay reaches the same fault —
            # the first in lock-step order, whichever column raised here —
            # with events and column state accounted cycle by cycle,
            # including the final partial bundle, exactly like the
            # reference (docs/engine.md).
            _restore_launch(vwr2a, snapshot)
            _lockstep(vwr2a, name, active, max_cycles)
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
        self.decisions["compiled"] += 1
        totals, events, superblocks = self._fold(bounds)
        vwr2a.events.add_many(totals)
        return RunInfo("compiled", cycles, events,
                       superblocks=dict(superblocks))

    def _fold(self, bounds) -> tuple:
        """The launch's event totals and loop accounting, memoized per
        (bound programs, count vectors).

        Deterministic kernels repeat their execution histograms launch
        after launch, so one walk of the executed superblocks' static
        deltas serves every repeat. Returns ``(totals, events,
        superblocks)``: the ``{event: count}`` update for the shared
        tally, inserted in sorted event-name order (so the tally's order,
        and every float sum downstream, depends only on the events that
        ticked), the same totals as the sorted ``((event, count), ...)``
        of ``RunInfo``, and the closed-form loops' entries and trips.
        """
        key = tuple((bound, tuple(bound.counts)) for bound in bounds)
        fold = self._folds.get(key)
        if fold is None:
            walked = {}
            loops = trips = 0
            for bound, counts in key:
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
            fold = (totals, tuple(totals.items()),
                    {"accelerated_loops": loops, "accelerated_trips": trips})
            if len(self._folds) >= self.FOLD_CAP:
                del self._folds[next(iter(self._folds))]
            self._folds[key] = fold
        return fold
