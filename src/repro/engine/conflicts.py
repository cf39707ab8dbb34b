"""Compile-time SPM access analysis: write footprints and the
cross-column verdict.

The compiled engine runs the columns of a launch one after another, each
to EXIT, where the reference interpreter steps them in lock-step. The
columns share only the SPM, so the two orders are indistinguishable
unless one column writes an SPM word another column reads or writes. This
module proves that statically: on a configuration's first launch every
column program — a single-column kernel's one column included — is
abstractly executed over its configuration words to derive the
**footprint** of SPM addresses it may read and write, and the footprints
of concurrently live columns are intersected. A launch with no overlap
is admitted to the compiled engine; any overlap is a conflict. The
union of the columns' write footprints also bounds what a compiled
launch can change in the SPM, so the launch snapshot
(:class:`repro.engine.executor.Launch`) copies only those words.

The analysis leans on the same property the static event-delta fold relies
on (:mod:`repro.engine.deltas`): *which* SPM addresses a kernel touches is
determined by the configuration words — ``srf_init`` values, ``SET_SRF``
immediates and post-increment chains — never by the data flowing through
the datapath. Data-dependent addresses do exist (``LD_SRF`` results or RC
writes into the SRF used as addresses); those are widened to
"may touch anything" and the kernel conservatively falls back.

Abstract domain
---------------
The walk steps the program's one path through the transfer function of
:mod:`repro.engine.superblocks` (:func:`~repro.engine.superblocks.step`),
the same one the compiler's loop planner uses, over symbolic values:
SRF entries start as ``("c", v)`` from ``srf_init``, everything else as
:data:`~repro.engine.superblocks.UNKNOWN`, and ``step``'s access hook
records each SPM access into the footprint.

* a known branch picks its successor;
* a branch on :data:`~repro.engine.superblocks.UNKNOWN` (a data-dependent
  branch) ends the walk with unbounded reads and writes: neither
  successor is followed;
* a closed-form loop (:func:`~repro.engine.superblocks.loop_summary`, the
  Table-1 pattern of every kernel) is **accelerated**: its trip count is
  solved from the branch in closed form, each access site contributes
  ``{base + j*stride}`` to the footprint in one step, and each register
  leaves the loop as its summary says. A loop whose entry state is not
  concrete, or whose counter would leave int32, is stepped instead.

A state seen before ends the walk (the path repeats forever); exceeding
:data:`MAX_STEPS` marks the column *unbounded* (sound: unbounded
footprints conflict with everything another column touches).
Out-of-range addresses end the path, exactly as the ``AddressError``
would end the run. A program with no SPM access has an empty footprint
whatever its control flow.

Footprints are sorted, merged inclusive ``(lo, hi)`` word runs (the
format :func:`address_runs` produces), so a line access costs one run,
not one entry per word; conflicts intersect the runs and spell out the
overlapping words only when there is one.

Column footprints are memoized structurally, on the program's shape
(:func:`repro.engine.superblocks.program_shape`, keyed on the
configuration words stamped by the configuration memory) per
``srf_init`` values, so the reports of different config objects with
the same columns share their footprints, and the footprints of one
program under different ``srf_init`` share its blocks and loop
summaries with each other and with its compiled form. Warm launches
never get here: the planners build each kernel once and ``Vwr2a`` keeps
the verdict on the config's launch record. A new config object whose
columns were analyzed before (a hand-built copy, a planner entry rebuilt
after eviction) re-derives only the cheap pairwise intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.engine.superblocks import (
    UNKNOWN,
    program_shape,
    step,
    sym_add,
    trip_count,
)
from repro.isa.lcu import BRANCH_OPS, LCUCmp, LCUOp
from repro.utils.bits import to_signed32
from repro.utils.memo import remember

#: Abstract-execution budget per column (bundle steps + accelerated loops).
MAX_STEPS = 40_000

#: Analysis cache behaviour, observable by tests and benchmarks.
ANALYSIS_STATS = {
    "footprint_hits": 0,
    "footprint_misses": 0,
}

#: Next-PC of a bundle that ends the path (no program has a PC -1).
_STOP = -1


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def merge_runs(runs) -> tuple:
    """Sort inclusive ``(lo, hi)`` runs, merging overlapping and adjacent
    ones."""
    merged = []
    for lo, hi in sorted(runs):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


def address_runs(words) -> tuple:
    """Group a word-address set into inclusive ``(lo, hi)`` runs."""
    return merge_runs((w, w) for w in words)


def _overlap(a, b) -> tuple:
    """Sorted words in both of two merged run tuples."""
    words = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            words.extend(range(lo, hi + 1))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(words)


def format_words(words) -> str:
    """Compact ``[lo..hi]`` run formatting of a word-address set."""
    if not words:
        return "(none)"
    txt = ", ".join(
        f"[{a}..{b}]" if a != b else f"[{a}]"
        for a, b in address_runs(words)
    )
    return f"words {txt}"


@dataclass(frozen=True)
class ColumnFootprint:
    """May-touch SPM words of one column, as sorted, merged inclusive
    ``(lo, hi)`` runs."""

    reads: tuple
    writes: tuple
    unbounded_reads: bool = False
    unbounded_writes: bool = False

    @property
    def touches_anything(self) -> bool:
        return bool(
            self.reads or self.writes
            or self.unbounded_reads or self.unbounded_writes
        )


@dataclass(frozen=True)
class SpmConflict:
    """One cross-column overlap that makes the column order observable."""

    kind: str        #: ``"write-read"`` or ``"write-write"``
    writer: int      #: column whose writes overlap
    other: int       #: column reading (or also writing) the overlap
    words: tuple     #: sorted overlapping word addresses (() if unbounded)
    unbounded: bool = False

    def ranges(self) -> tuple:
        """Overlap as inclusive ``(lo, hi)`` word-address runs."""
        return address_runs(self.words)

    def describe(self) -> str:
        if self.unbounded:
            return (
                f"column {self.writer}'s SPM footprint cannot be bounded "
                f"statically and column {self.other} touches the SPM"
            )
        verb = "also writes" if self.kind == "write-write" else "reads"
        return (
            f"column {self.writer} writes SPM {format_words(self.words)} "
            f"that column {self.other} {verb}"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ConflictReport:
    """Outcome of the cross-column analysis for one kernel launch."""

    conflicts: tuple                 #: SpmConflict records (empty == safe)
    footprints: tuple                #: ((column, ColumnFootprint), ...)

    @property
    def conflict_free(self) -> bool:
        return not self.conflicts

    def reason(self) -> str:
        """One-line fallback reason (``RunResult.fallback_reason``)."""
        if self.conflict_free:
            return ""
        return "; ".join(c.describe() for c in self.conflicts)

    def write_slices(self, spm_words: int) -> tuple:
        """Half-open ``(start, stop)`` SPM slices holding every word any
        column may write: ``((0, spm_words),)`` when some column's writes
        are unbounded."""
        if any(fp.unbounded_writes for _, fp in self.footprints):
            return ((0, spm_words),)
        return tuple(
            (lo, hi + 1) for lo, hi in merge_runs(
                run for _, fp in self.footprints for run in fp.writes
            )
        )


EMPTY_FOOTPRINT = ColumnFootprint(reads=(), writes=())


# ---------------------------------------------------------------------------
# Abstract interpreter
# ---------------------------------------------------------------------------

class _FootprintAnalyzer:
    """Derives one column program's may-touch SPM footprint from its
    shape and ``srf_init``."""

    def __init__(self, shape, srf_init) -> None:
        params = shape.params
        self.bundles = shape.bundles
        self.n_lcu = params.lcu_registers
        self.spm_lines = params.spm_lines
        self.spm_words = params.spm_words
        self.line_words = params.line_words
        self.reads = []
        self.writes = []
        self.unbounded_reads = False
        self.unbounded_writes = False
        # ``Column.load`` applies ``srf_init`` but does NOT reset the other
        # SRF entries or the LCU registers — they carry whatever a previous
        # launch left behind. Anything not pinned by this kernel's own
        # configuration must therefore start as UNKNOWN, or carried-over
        # state could invalidate the conflict-free proof (and its memo,
        # which is keyed on the configuration alone). Seed kernels
        # establish every address register via srf_init / SET_SRF and
        # every loop counter via SETI before use, so they stay precise.
        n_srf = params.srf_entries
        srf0 = [UNKNOWN] * n_srf
        for entry, value in srf_init.items():
            if 0 <= entry < n_srf:
                srf0[entry] = ("c", to_signed32(value))
        self.srf0 = srf0
        self._loops = shape.loops

    # -- driver -----------------------------------------------------------

    def run(self) -> ColumnFootprint:
        pc, srf, lcu = 0, list(self.srf0), [UNKNOWN] * self.n_lcu
        seen = set()
        while 0 <= pc < len(self.bundles):
            state = (pc, tuple(srf), tuple(lcu))
            if state in seen:
                break  # a concrete cycle: the path repeats forever
            seen.add(state)
            if len(seen) > MAX_STEPS:
                self._give_up()
                break
            loop = self._loops.get(pc)
            nxt = None
            if loop is not None:
                nxt = self._accelerate(loop, srf, lcu)
            pc = self._apply(pc, srf, lcu) if nxt is None else nxt
        return ColumnFootprint(
            reads=merge_runs(self.reads),
            writes=merge_runs(self.writes),
            unbounded_reads=self.unbounded_reads,
            unbounded_writes=self.unbounded_writes,
        )

    def _give_up(self) -> None:
        self.unbounded_reads = True
        self.unbounded_writes = True

    # -- footprint recording ----------------------------------------------

    def _record(self, is_line: bool, is_write: bool, entry: int,
                address) -> bool:
        """Record one access at a symbolic address (:func:`step`'s access
        hook); False when it would fault (path ends)."""
        if address[0] != "c":
            if is_write:
                self.unbounded_writes = True
            else:
                self.unbounded_reads = True
            return True
        addr = address[1]
        if is_line:
            if not 0 <= addr < self.spm_lines:
                return False
            run = (addr * self.line_words, (addr + 1) * self.line_words - 1)
        else:
            if not 0 <= addr < self.spm_words:
                return False
            run = (addr, addr)
        (self.writes if is_write else self.reads).append(run)
        return True

    # -- one bundle --------------------------------------------------------

    def _apply(self, pc: int, srf: list, lcu: list) -> int:
        """Step one bundle; returns the next PC, or :data:`_STOP`."""
        bundle = self.bundles[pc]
        if not step(bundle, srf, lcu, self._record):
            return _STOP
        instr = bundle.lcu
        op = instr.op
        if op is LCUOp.JUMP:
            return instr.target
        if op is LCUOp.EXIT:
            return _STOP
        if op not in BRANCH_OPS:
            return pc + 1
        lhs = lcu[instr.rd]
        rhs = _operand(instr, srf, lcu)
        if lhs[0] != "c" or rhs[0] != "c":
            # Data-dependent branch: neither successor is followed.
            self._give_up()
            return _STOP
        lhs, rhs = lhs[1], rhs[1]
        taken = {
            LCUOp.BLT: lhs < rhs,
            LCUOp.BGE: lhs >= rhs,
            LCUOp.BEQ: lhs == rhs,
            LCUOp.BNE: lhs != rhs,
        }[op]
        return instr.target if taken else pc + 1

    # -- closed-form loops -------------------------------------------------

    def _accelerate(self, loop, srf: list, lcu: list):
        """Fold a whole closed-form loop run into footprint + post-state;
        returns the loop's exit PC, or None to step the loop instead (its
        entry state is not concrete, or its counter would leave int32)."""
        branch = loop.branch
        v0 = lcu[branch.rd]
        bound = _operand(branch, srf, lcu)
        if v0[0] != "c" or bound[0] != "c":
            return None
        d = loop.delta
        trips = trip_count(branch.op, d, v0[1], bound[1])
        if trips is None \
                or not -2147483648 <= v0[1] + trips * d <= 2147483647:
            return None
        for is_line, is_write, entry, sym in loop.sites:
            base = srf[entry]
            final = loop.srf[entry]
            if sym[0] == "u" or base[0] != "c" or final[0] == "u":
                self._record(is_line, is_write, entry, UNKNOWN)
            elif sym[0] == "c":
                self._record(is_line, is_write, entry, sym)
            elif final[0] == "c":
                # The entry is reset every trip: the site sees the initial
                # value once, then the reset value on every later trip.
                self._record(is_line, is_write, entry,
                             ("c", base[1] + sym[1]))
                if trips > 1:
                    self._record(is_line, is_write, entry,
                                 ("c", final[1] + sym[1]))
            else:
                addr, stride = base[1] + sym[1], final[1]
                for _ in range(trips):
                    if not self._record(is_line, is_write, entry,
                                        ("c", addr)):
                        break  # monotone progression left the SPM: faults
                    if stride == 0:
                        break
                    addr += stride
        for values, finals in ((srf, loop.srf), (lcu, loop.lcu)):
            for index, final in enumerate(finals):
                if final != ("d", 0):
                    values[index] = final if final[0] != "d" \
                        else sym_add(values[index], trips * final[1])
        return loop.pcs[-1] + 1


def _operand(branch, srf: list, lcu: list):
    """Symbolic value of a branch's comparison operand."""
    if branch.cmp_kind is LCUCmp.IMM:
        return ("c", int(branch.cmp))
    if branch.cmp_kind is LCUCmp.REG:
        return lcu[int(branch.cmp)]
    return srf[int(branch.cmp)]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def column_footprint(program, params) -> ColumnFootprint:
    """May-touch SPM footprint of one column program (memoized on its
    shape, per ``srf_init``)."""
    shape = program_shape(program, params)
    footprints = shape.footprints
    key = tuple(sorted(program.srf_init.items()))
    footprint = footprints.get(key)
    if footprint is not None:
        ANALYSIS_STATS["footprint_hits"] += 1
        return footprint
    ANALYSIS_STATS["footprint_misses"] += 1
    if any(bundle.spm_access() is not None for bundle in shape.bundles):
        footprint = _FootprintAnalyzer(shape, program.srf_init).run()
    else:
        footprint = EMPTY_FOOTPRINT
    return remember(footprints, key, footprint)


def _pair_conflicts(col_a, fp_a, col_b, fp_b):
    conflicts = []
    if fp_a.unbounded_writes and fp_b.touches_anything:
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_a, other=col_b,
            words=(), unbounded=True,
        ))
    if fp_b.unbounded_writes and fp_a.touches_anything:
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_b, other=col_a,
            words=(), unbounded=True,
        ))
    if fp_a.unbounded_reads and (fp_b.writes or fp_b.unbounded_writes):
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_b, other=col_a,
            words=(), unbounded=True,
        ))
    if fp_b.unbounded_reads and (fp_a.writes or fp_a.unbounded_writes):
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_a, other=col_b,
            words=(), unbounded=True,
        ))
    if conflicts:
        return conflicts
    ww = _overlap(fp_a.writes, fp_b.writes)
    if ww:
        conflicts.append(SpmConflict(
            kind="write-write", writer=col_a, other=col_b, words=ww,
        ))
    wr = _overlap(fp_a.writes, fp_b.reads)
    if wr:
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_a, other=col_b, words=wr,
        ))
    rw = _overlap(fp_a.reads, fp_b.writes)
    if rw:
        conflicts.append(SpmConflict(
            kind="write-read", writer=col_b, other=col_a, words=rw,
        ))
    return conflicts


def analyze_columns(columns: dict, params) -> ConflictReport:
    """SPM footprints and cross-column conflict report for one kernel.

    ``columns`` maps column index to :class:`ColumnProgram`. Every column
    gets a footprint (memoized on its program's shape); a single-column
    kernel is conflict-free.
    """
    footprints = tuple(
        (col, column_footprint(columns[col], params))
        for col in sorted(columns)
    )
    conflicts = []
    for (col_a, fp_a), (col_b, fp_b) in combinations(footprints, 2):
        conflicts.extend(_pair_conflicts(col_a, fp_a, col_b, fp_b))
    return ConflictReport(
        conflicts=tuple(conflicts), footprints=footprints,
    )
