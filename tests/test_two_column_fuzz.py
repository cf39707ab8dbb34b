"""Generated two-column differential for the SPM-conflict proof.

The compiled engine runs the columns of an admitted launch one after
another, each to EXIT; the reference interpreter steps them in
lock-step. The two orders agree only when no column writes an SPM word
another column reads or writes, which :func:`analyze_columns` proves per
launch. Hypothesis draws two-column kernels — a counted loop with a
drawn trip count, line loads and stores at drawn bases (overlapping
each other, or walking off either end of the SPM) and one RC op;
sometimes a ``SET_SRF`` re-basing the store pointer every trip, a word
``LD_SRF``/``ST_SRF`` site, and a second counted loop walking on from
the pointers the first one left — and checks, for every draw:

* ``auto`` equals ``reference`` on cycles, the launch's event delta,
  the event tally, SPM and both columns' state, or raises the same error
  and leaves the same state;
* ``auto`` routes the launch to the reference exactly when the analysis
  reports a conflict (read from ``engine_decisions``, which also counts
  launches that abort);
* the footprints are sound: when no column's writes are unbounded, the
  reference run changes no SPM word outside the union of the columns'
  write runs (the words a compiled launch's snapshot holds). Most draws
  must be bounded, so the check is not vacuous.

``FUZZ_EXAMPLES`` raises the example count for a longer run (CI runs
one); the default keeps the fixed-seed run in tier-1 short.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEFAULT_PARAMS
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.core.errors import SimulationError
from repro.engine.conflicts import analyze_columns
from repro.isa.fields import DST_VWR_B, VWR_A, Vwr, imm
from repro.isa.lcu import addi, blt, seti
from repro.isa.lsu import LSU_NOP, ld_srf, ld_vwr, set_srf, st_srf, st_vwr
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from test_spm_conflicts import _full_state, write_footprint_holds

SPM_LINES = DEFAULT_PARAMS.spm_lines
SPM_WORDS = DEFAULT_PARAMS.spm_words
LINE_WORDS = DEFAULT_PARAMS.line_words
EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "150"))
HALF = SPM_LINES // 2


def bases(index: int):
    """Line bases for column ``index``: its own half of the SPM (disjoint
    walks), anywhere (overlapping the other column), or the last few
    lines (post-increment walks fault off the end)."""
    return st.one_of(
        st.sampled_from(range(index * HALF, (index + 1) * HALF - 4)),
        st.sampled_from(range(SPM_LINES)),
        st.sampled_from(range(SPM_LINES - 3, SPM_LINES)),
    )


RC_OPS = (RCOp.SADD, RCOp.SSUB, RCOp.SMUL, RCOp.FXPMUL, RCOp.LXOR,
          RCOp.SMAX, RCOp.SRA)

#: Deterministic full-range int32 SPM contents (SMUL results wrap).
SPM_INIT = [
    ((i * 2654435761) % (1 << 32)) - (1 << 31)
    for i in range(DEFAULT_PARAMS.spm_words)
]


def word_bases(index: int):
    """Word addresses for column ``index``, as :func:`bases` draws lines."""
    return st.one_of(
        st.sampled_from(range(index * HALF * LINE_WORDS,
                              (index + 1) * HALF * LINE_WORDS - 4)),
        st.sampled_from(range(SPM_WORDS)),
        st.sampled_from(range(SPM_WORDS - 3, SPM_WORDS)),
    )


def counted_loop(draw, b, label: str, rcs, word_site=LSU_NOP,
                 rebase=None) -> None:
    """A counted loop of LD_VWR, the RC op (with ``word_site`` in its LSU
    slot) and ST_VWR, stepping SRF[0] and SRF[1]. ``rebase`` sets SRF[1]
    after the store, so the store sees the pointer's entry value once and
    the re-based value on every later trip."""
    trips = draw(st.integers(1, 8))
    b.emit(lcu=seti(0, 0))
    b.label(label)
    b.emit(lsu=ld_vwr(Vwr.A, 0, inc=draw(st.sampled_from((-1, 0, 1, 2)))))
    b.emit(rcs=rcs, lcu=addi(0, 1), lsu=word_site)
    store = st_vwr(Vwr.B, 1, inc=draw(st.sampled_from((-1, 0, 1))))
    if rebase is None:
        b.emit(lsu=store, lcu=blt(0, trips, label))
    else:
        b.emit(lsu=store)
        b.emit(lsu=set_srf(1, rebase), lcu=blt(0, trips, label))


@st.composite
def column(draw, index: int):
    """One column: a counted loop of LD_VWR, one RC op and ST_VWR.

    Sometimes the loop also re-bases its store pointer every trip
    (``SET_SRF``) or carries a word ``LD_SRF``/``ST_SRF`` site, and
    sometimes a second counted loop follows, walking on from the pointers
    the first one left.
    """
    b = ProgramBuilder(n_rcs=DEFAULT_PARAMS.rcs_per_column)
    b.srf(0, draw(bases(index)))
    b.srf(1, draw(bases(index)))
    op = draw(st.sampled_from(RC_OPS))
    value = draw(st.integers(-(1 << 16), (1 << 16) - 1)) \
        if op is not RCOp.SRA else draw(st.integers(0, 31))
    rcs = [rc(op, DST_VWR_B, VWR_A, imm(value))] \
        * DEFAULT_PARAMS.rcs_per_column
    word_site = LSU_NOP
    if draw(st.booleans()):
        b.srf(2, draw(word_bases(index)))
        word_site = draw(st.sampled_from((ld_srf, st_srf)))(
            3, 2, inc=draw(st.sampled_from((-1, 0, 1, 4))),
        )
    rebase = draw(st.one_of(st.none(), bases(index)))
    counted_loop(draw, b, "loop", rcs, word_site, rebase)
    if draw(st.booleans()):
        counted_loop(draw, b, "again", rcs)
    b.exit()
    return b.build()


def _launch(engine: str, config: KernelConfig):
    """The launch's outcome and state, plus the engine's launch tally."""
    sim = Vwr2a(engine=engine)
    sim.spm.poke_words(0, SPM_INIT)
    try:
        result = sim.execute(config)
        outcome = ("ok", result.cycles, result.column_steps, result.events)
    except SimulationError as error:
        outcome = (type(error).__name__, str(error))
    state = outcome, _full_state(sim, 0), _full_state(sim, 1)
    return state, sim.engine_decisions


def test_generated_two_column_kernels_match_reference():
    bounded = []

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(st.tuples(column(0), column(1)))
    def check(pair):
        config = KernelConfig(name="fuzz", columns=dict(enumerate(pair)))
        reference, _ = _launch("reference", config)
        auto, decisions = _launch("auto", config)
        assert auto == reference
        report = analyze_columns(config.columns, DEFAULT_PARAMS)
        assert decisions == {
            "reference" if report.conflicts else "compiled": 1
        }
        bounded.append(write_footprint_holds(
            report, SPM_INIT, reference[1]["spm"]
        ))

    check()
    assert sum(bounded) >= 0.9 * len(bounded)
