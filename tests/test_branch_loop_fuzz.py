"""Generated differential for multi-block loops with data-dependent branches.

``delineate``, the busiest kernel of a served window, is a counted scan
whose body branches on the SPM samples it loads into the SRF
(``LD_SRF``) and hands to the LCU (``LDSRF``). Hypothesis draws
single-column kernels of that shape:

* a counted outer loop (a ``BGE`` exit at its head, a drawn trip count)
  that loads one SPM word per trip through a post-incrementing SRF
  pointer, with a drawn base and stride; some bases walk off either end
  of the SPM;
* a drawn ``BLT``/``BGE``/``BEQ``/``BNE`` of the loaded value against an
  immediate or a running LCU register, choosing one of two arms;
* in each arm, one to three bundles of drawn RC ops (the last one jumps
  back to the loop head), optionally after latching the value into the
  running register and committing an RC result to the SPM through
  ``ST_SRF`` and a second drawn pointer;
* sometimes a second way into the loop: a ``JUMP`` or a drawn branch
  before the loop head that enters one arm directly, so the loop has
  two entries and its CFG is irreducible, like ``delineate``'s;
* sometimes a ``max_cycles`` budget that cuts the loop short.

For every draw, ``auto`` equals ``reference`` on the outcome (error type
and message, or cycles, column steps and the launch's event delta), the
event tally and the full SPM and column state. That includes the
aborted launches, which the compiled engine rewinds and replays on the
reference. ``FUZZ_EXAMPLES`` raises the example count for a longer run
(CI runs one); the default keeps the fixed-seed run in tier-1 short.
"""

from __future__ import annotations

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DEFAULT_PARAMS
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.core.errors import SimulationError
from repro.isa.fields import DST_R0, DST_R1, R0, R1, RCB, RCT, dst_srf, imm
from repro.isa.lcu import addi, beq, bge, blt, bne, jump, ldsrf, seti
from repro.isa.lsu import ld_srf, st_srf
from repro.isa.program import KernelConfig
from repro.isa.rc import RC_NOP, RCOp, rc
from test_spm_conflicts import _full_state

SPM_WORDS = DEFAULT_PARAMS.spm_words
N_RCS = DEFAULT_PARAMS.rcs_per_column
EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "120"))

#: Small deterministic SPM samples, so both arms of a drawn comparison
#: against a small immediate or running value get taken.
SPM_INIT = [(i * 7919) % 17 - 8 for i in range(SPM_WORDS)]

# SRF entries and LCU registers the generated kernels use.
SRF_LOAD, SRF_STORE, SRF_VALUE, SRF_COMMIT = 0, 1, 3, 4
REG_TRIP, REG_VALUE, REG_RUNNING = 0, 1, 2

RC_OPS = (RCOp.SADD, RCOp.SSUB, RCOp.SMUL, RCOp.LXOR, RCOp.SMAX,
          RCOp.SMIN, RCOp.SRA, RCOp.MOV)
OPERANDS = st.one_of(
    st.sampled_from((R0, R1, RCT, RCB)),
    st.integers(-64, 63).map(imm),
)
BRANCHES = {"blt": blt, "bge": bge, "beq": beq, "bne": bne}


def pointers():
    """An SRF word pointer and its post-increment: anywhere in the SPM,
    or close enough to either end that the walk faults."""
    return st.tuples(
        st.one_of(
            st.integers(0, SPM_WORDS - 1),
            st.integers(SPM_WORDS - 6, SPM_WORDS - 1),
            st.integers(0, 5),
        ),
        st.sampled_from((-1, 1, 1, 2)),
    )


@st.composite
def rc_slots(draw) -> list:
    """One bundle's RC instructions: each slot a NOP or a drawn op."""
    slots = []
    for _ in range(N_RCS):
        if draw(st.integers(0, 3)) == 0:
            slots.append(RC_NOP)
            continue
        slots.append(rc(
            draw(st.sampled_from(RC_OPS)),
            draw(st.sampled_from((DST_R0, DST_R1))),
            draw(OPERANDS), draw(OPERANDS),
        ))
    return slots


@st.composite
def arms(draw) -> dict:
    return {
        "latch": draw(st.booleans()),
        "commit": draw(st.none() | st.tuples(
            st.sampled_from(RC_OPS), st.sampled_from((R0, R1)),
            st.integers(-64, 63),
        )),
        "body": draw(st.lists(st.tuples(
            rc_slots(), st.none() | st.integers(-4, 4),
        ), min_size=1, max_size=3)),
    }


@st.composite
def kernels(draw) -> dict:
    return {
        "load": draw(pointers()),
        "store": draw(pointers()),
        "trips": draw(st.integers(0, 24)),
        "running": draw(st.integers(-8, 8)),
        "head": draw(rc_slots()),
        "branch": draw(st.sampled_from(sorted(BRANCHES))),
        "cmp": draw(st.one_of(
            st.integers(-8, 8), st.just(("reg", REG_RUNNING)),
        )),
        "fall": draw(arms()),
        "taken": draw(arms()),
        "entry": draw(st.none() | st.tuples(
            st.sampled_from(("jump", *sorted(BRANCHES))),
            st.sampled_from(("fall", "taken")),
            st.integers(-8, 8),
        )),
        "max_cycles": draw(st.none() | st.integers(1, 120)),
    }


def _emit_arm(b: ProgramBuilder, arm: dict, store_inc: int) -> None:
    if arm["latch"]:
        b.emit(lcu=ldsrf(REG_RUNNING, SRF_VALUE))
    if arm["commit"] is not None:
        op, source, value = arm["commit"]
        b.emit(rcs={0: rc(op, dst_srf(SRF_COMMIT), source, imm(value))})
        b.emit(lsu=st_srf(SRF_COMMIT, SRF_STORE, inc=store_inc))
    body = arm["body"]
    for position, (slots, delta) in enumerate(body):
        if position == len(body) - 1:
            lcu = jump("loop")
        elif delta is not None:
            lcu = addi(REG_RUNNING, delta)
        else:
            lcu = seti(REG_VALUE, 0)
        b.emit(rcs=slots, lcu=lcu)


def _config(kernel: dict) -> KernelConfig:
    b = ProgramBuilder(n_rcs=N_RCS)
    b.srf(SRF_LOAD, kernel["load"][0])
    b.srf(SRF_STORE, kernel["store"][0])
    b.emit(lcu=seti(REG_TRIP, 0))
    b.emit(lcu=seti(REG_RUNNING, kernel["running"]))
    if kernel["entry"] is not None:
        kind, arm, value = kernel["entry"]
        if kind == "jump":
            b.emit(lcu=jump(arm))
        else:
            b.emit(lcu=BRANCHES[kind](REG_RUNNING, value, arm))
    b.label("loop")
    b.emit(lcu=bge(REG_TRIP, kernel["trips"], "done"))
    b.emit(lsu=ld_srf(SRF_VALUE, SRF_LOAD, inc=kernel["load"][1]),
           lcu=addi(REG_TRIP, 1), rcs=kernel["head"])
    b.emit(lcu=ldsrf(REG_VALUE, SRF_VALUE))
    b.emit(lcu=BRANCHES[kernel["branch"]](
        REG_VALUE, kernel["cmp"], "taken"
    ))
    b.label("fall")
    _emit_arm(b, kernel["fall"], kernel["store"][1])
    b.label("taken")
    _emit_arm(b, kernel["taken"], kernel["store"][1])
    b.label("done")
    b.exit()
    return KernelConfig(name="scan", columns={0: b.build()})


def _launch(engine: str, config: KernelConfig, max_cycles):
    """The launch's outcome and state, plus the engine's launch tally."""
    sim = Vwr2a(engine=engine)
    sim.spm.poke_words(0, SPM_INIT)
    try:
        result = sim.execute(config, max_cycles=max_cycles)
        outcome = ("ok", result.cycles, result.column_steps, result.events)
    except SimulationError as error:
        outcome = (type(error).__name__, str(error))
    return (outcome, _full_state(sim)), sim.engine_decisions


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(kernels())
def test_generated_branching_loops_match_reference(kernel):
    config = _config(kernel)
    reference, _ = _launch("reference", config, kernel["max_cycles"])
    auto, decisions = _launch("auto", config, kernel["max_cycles"])
    assert auto == reference
    # A single-column launch always runs compiled (faults included);
    # the loop's counter never nears int32, so nothing replays early.
    assert decisions == {"compiled": 1}
