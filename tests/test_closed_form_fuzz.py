"""Generated single-column differential for closed-form counted loops.

The compiled engine runs a provable self-loop as one counted loop whose
trip count it solves at loop entry. The count holds only while the
counter stays inside int32; where it would leave int32 within the trips
the cycle budget allows, the launch rewinds and replays on the reference
interpreter. Hypothesis draws one such loop per kernel:

* the counter is loaded from the SRF (``srf_init`` + ``LDSRF``) near
  either int32 edge, and advances by a drawn non-zero delta;
* the back-branch is a drawn ``BLT``/``BGE`` against an immediate, an
  LCU register or an SRF entry;
* an optional second LCU register advances alongside (rebuilt from the
  loop's affine summary, and free to wrap);
* ``max_cycles`` is drawn below, at and above the cycles the loop needs.

For every draw, ``auto`` equals ``reference`` on the outcome (error type
and message, or cycles, column steps and the launch's event delta), the
event tally and the full column and SPM state; and ``auto`` counts the
launch under ``reference`` exactly when the counter leaves int32 on a
trip the budget allows, naming the loop on ``RunResult.fallback_reason``
when the launch completes. The column's write footprint is sound: when
bounded, the reference run changes no SPM word outside it (the loop
touches no SPM, so every draw is bounded, wrapped loops included).

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
from repro.isa.fields import DST_R0, R0, imm
from repro.isa.lcu import addi, bge, blt, ldsrf
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from repro.utils.fixed_point import wrap32
from test_spm_conflicts import _full_state, write_footprint_holds

INT32_MIN, INT32_MAX = -2**31, 2**31 - 1
#: The LCU's signed 17-bit immediates (ADDI deltas, IMM bounds).
IMM_MIN, IMM_MAX = -2**16, 2**16 - 1
#: Trips the loop model follows before calling a loop endless.
MODEL_TRIPS = 400
EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "200"))


def near_edges(reach: int):
    """int32 values within ``reach`` of either edge."""
    return st.one_of(
        st.integers(INT32_MAX - reach, INT32_MAX),
        st.integers(INT32_MIN, INT32_MIN + reach),
    )


DELTAS = st.one_of(
    st.integers(1, 8), st.integers(-8, -1),
    st.integers(1, IMM_MAX), st.integers(IMM_MIN, -1),
)


@st.composite
def loops(draw) -> dict:
    """One loop's parameters (see the module docstring)."""
    delta = draw(DELTAS)
    # The counter starts a few dozen trips from an edge, and half the
    # time heads for it.
    reach = 48 * abs(delta)
    v0 = draw(near_edges(reach))
    if draw(st.booleans()):
        delta = abs(delta) if v0 > 0 else -abs(delta)
    kind = draw(st.sampled_from(("imm", "reg", "srf")))
    if kind == "imm":
        bound = draw(st.integers(IMM_MIN, IMM_MAX))
    else:
        # An edge bound keeps the branch taken past a wrap (endless).
        bound = draw(st.one_of(
            near_edges(reach),
            st.sampled_from((INT32_MIN, INT32_MAX)),
            st.integers(-reach, reach).map(
                lambda d: max(INT32_MIN, min(INT32_MAX, v0 + d))
            ),
        ))
    loop = {
        "v0": v0,
        "delta": delta,
        "op": draw(st.sampled_from(("blt", "bge"))),
        "kind": kind,
        "bound": bound,
        "step": draw(st.integers(-3, 3)),
        "aside": draw(st.none() | st.tuples(near_edges(IMM_MAX), DELTAS)),
    }
    prologue = 2 if kind == "reg" else 1
    loop["prologue"] = prologue + (loop["aside"] is not None)
    loop["trip_cycles"] = 2 + (loop["aside"] is not None)
    trips = _model(loop, MODEL_TRIPS)[0]
    if trips is None:
        cycles = draw(st.integers(1, loop["prologue"]
                                  + MODEL_TRIPS * loop["trip_cycles"]))
    else:
        need = loop["prologue"] + trips * loop["trip_cycles"] + 1
        cycles = draw(st.one_of(
            st.integers(1, need - 1), st.just(need),
            st.integers(need + 1, need + 8),
        ) if need > 1 else st.integers(need, need + 8))
    loop["max_cycles"] = cycles
    return loop


def _model(loop: dict, max_trips: int) -> tuple:
    """Follow the loop trip by trip, as the reference does, for at most
    ``max_trips`` trips. Returns ``(trips, wrapped)``: the trips run to
    the fall-through (None when still looping) and the first trip whose
    counter update leaves int32 (None when none does)."""
    counter = loop["v0"]
    wrapped = None
    for trip in range(1, max_trips + 1):
        counter += loop["delta"]
        if not INT32_MIN <= counter <= INT32_MAX:
            counter = wrap32(counter)
            if wrapped is None:
                wrapped = trip
        taken = counter < loop["bound"] if loop["op"] == "blt" \
            else counter >= loop["bound"]
        if not taken:
            return trip, wrapped
    return None, wrapped


def _config(loop: dict) -> KernelConfig:
    b = ProgramBuilder(n_rcs=DEFAULT_PARAMS.rcs_per_column)
    b.srf(0, loop["v0"])
    b.emit(lcu=ldsrf(0, 0))
    bound = loop["bound"]
    if loop["kind"] != "imm":
        b.srf(1, bound)
        bound = ("srf", 1)
        if loop["kind"] == "reg":
            b.emit(lcu=ldsrf(1, 1))
            bound = ("reg", 1)
    if loop["aside"] is not None:
        b.srf(2, loop["aside"][0])
        b.emit(lcu=ldsrf(2, 2))
    b.label("loop")
    b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(loop["step"]))]
           * DEFAULT_PARAMS.rcs_per_column, lcu=addi(0, loop["delta"]))
    if loop["aside"] is not None:
        b.emit(lcu=addi(2, loop["aside"][1]))
    branch = blt if loop["op"] == "blt" else bge
    b.emit(lcu=branch(0, bound, "loop"))
    b.exit()
    return KernelConfig(name="loop", columns={0: b.build()})


def _launch(engine: str, config: KernelConfig, max_cycles: int):
    """The launch's outcome and state, plus the engine's launch tally."""
    sim = Vwr2a(engine=engine)
    try:
        result = sim.execute(config, max_cycles=max_cycles)
        outcome = ("ok", result.cycles, result.column_steps, result.events)
        reason = result.fallback_reason
    except SimulationError as error:
        outcome = (type(error).__name__, str(error))
        reason = None
    return (outcome, _full_state(sim)), sim.engine_decisions, reason


def test_generated_closed_form_loops_match_reference():
    bounded = []

    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(loops())
    def check(loop):
        config = _config(loop)
        max_cycles = loop["max_cycles"]
        reference, _, _ = _launch("reference", config, max_cycles)
        auto, decisions, reason = _launch("auto", config, max_cycles)
        assert auto == reference
        # The compiled loop sees only the full trips that fit the budget.
        budget_trips = (max_cycles - loop["prologue"]) \
            // loop["trip_cycles"]
        _, wrapped = _model(loop, budget_trips)
        assert decisions == {
            "compiled" if wrapped is None else "reference": 1
        }
        if auto[0][0] == "ok":
            assert (reason is None) == (wrapped is None)
            if wrapped is not None:
                assert reason == (
                    f"column 0: the counter of the loop at PC "
                    f"{loop['prologue']} leaves int32"
                )
        bounded.append(write_footprint_holds(
            analyze_columns(config.columns, DEFAULT_PARAMS),
            [0] * DEFAULT_PARAMS.spm_words, reference[1]["spm"],
        ))

    check()
    assert sum(bounded) >= 0.9 * len(bounded)
