"""Differential tests for closed-form loops and the compiled blocks.

Closed-form counted loops (including the loop shapes that lap the VWR
slice, masked/XOR index orbits, per-cell distinct ops and the
read-modify-write butterfly), the runtime guard that replays a launch on
the reference interpreter when a loop counter would wrap around int32,
data-dependent loops, basic blocks as the compile unit and the RunResult
superblock counters — every scenario asserted bit-identical against the
reference interpreter — plus a property that the trip count the
compiler emits as source equals :func:`trip_count`.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ArchParams
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.engine.compiler import compile_program
from repro.engine.superblocks import (
    LoopSummary,
    block_pcs,
    trip_count,
    trip_count_lines,
)
from repro.isa.fields import (
    DST_R0,
    DST_VWR_B,
    DST_VWR_C,
    R0,
    VWR_A,
    VWR_B,
    VWR_C,
    Vwr,
    imm,
    srf,
)
from repro.isa.lcu import LCUOp, addi, bge, blt, jump, ldsrf, seti
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.mxcu import inck, setk
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc

ENGINES = ("reference", "auto")

#: Trip-count property examples (``FUZZ_EXAMPLES`` raises it, as for the
#: generated-program fuzzers).
EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "300"))

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1

#: Counter and bound values: anywhere in int32, or at its edges.
INT32S = st.one_of(
    st.integers(INT32_MIN, INT32_MAX),
    st.sampled_from((INT32_MIN, INT32_MIN + 1, -1, 0, 1,
                     INT32_MAX - 1, INT32_MAX)),
)

#: Distinct per-cell instructions (one per RC of the default geometry).
_PER_CELL_RCS = [
    rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B),
    rc(RCOp.SSUB, DST_VWR_C, VWR_A, VWR_B),
    rc(RCOp.SMAX, DST_VWR_C, VWR_A, VWR_B),
    rc(RCOp.LXOR, DST_VWR_C, VWR_A, VWR_B),
]


def _full_state(sim: Vwr2a) -> dict:
    col = sim.columns[0]
    return {
        "events": sim.events.snapshot(),
        "spm": sim.spm.peek_words(0, sim.params.spm_words // 4),
        "vwrs": {v: col.vwr_words(v) for v in col.vwrs},
        "srf": [col.srf.peek(e) for e in range(sim.params.srf_entries)],
        "rc_regs": [list(r) for r in col.rc_regs],
        "rc_out": list(col.rc_out),
        "lcu_regs": list(col.lcu_regs),
        "k": col.k,
        "pc": col.pc,
    }


def _run_both(config_builder, params=None, poke=None):
    """Execute one kernel on both engines; return per-engine states."""
    states = {}
    results = {}
    for engine in ENGINES:
        sim = Vwr2a(engine=engine) if params is None \
            else Vwr2a(params=params, engine=engine)
        if poke is not None:
            poke(sim)
        config = config_builder(sim.params)
        results[engine] = sim.execute(config)
        states[engine] = _full_state(sim)
    assert states["reference"] == states["auto"]
    ref, cmp_ = results["reference"], results["auto"]
    assert cmp_.engine == "compiled"
    assert ref.cycles == cmp_.cycles
    assert ref.column_steps == cmp_.column_steps
    assert ref.events == cmp_.events
    return cmp_


def _poke_ramp(sim: Vwr2a) -> None:
    sim.spm.poke_words(
        0, [((i * 31) % 2001) - 1000 for i in range(1024)]
    )


def _broadcast_loop(params, trips, op=RCOp.SADD, dst=DST_VWR_C,
                    update=None, extra_rcs=None):
    """One fused self-loop: load A/B, run `trips` broadcast trips, store."""
    b = ProgramBuilder(n_rcs=params.rcs_per_column)
    b.srf(0, 0)
    b.srf(1, 1)
    b.srf(2, 2)
    b.emit(lsu=ld_vwr(Vwr.A, 0))
    b.emit(lsu=ld_vwr(Vwr.B, 1), lcu=seti(0, 0),
           mxcu=setk(params.slice_words - 1))
    b.label("loop")
    rcs = extra_rcs if extra_rcs is not None \
        else [rc(op, dst, VWR_A, VWR_B)] * params.rcs_per_column
    b.emit(rcs=rcs, mxcu=update if update is not None else inck(
        1, and_mask=params.slice_words - 1), lcu=addi(0, 1))
    b.emit(lcu=blt(0, trips, "loop"))
    b.emit(lsu=st_vwr(Vwr.C, 2))
    b.exit()
    return KernelConfig(name="sbloop", columns={0: b.build()})


class TestClosedFormLoops:
    def test_counted_scalar_loop_bit_identity(self):
        # 16 trips (one Table-1 slice pass): the counted loop runs
        # without per-trip branch evaluation and must be exact.
        result = _run_both(
            lambda p: _broadcast_loop(p, 16), poke=_poke_ramp
        )
        assert result.superblocks["accelerated_loops"] == 1
        assert result.superblocks["accelerated_trips"] == 16

    @pytest.mark.parametrize("trips, shape", [
        # The index sequence laps the 32-word slice 4x, so VWR writes
        # hit the same word repeatedly: last write wins.
        (128, {}),
        # Non-affine index update (AND+XOR masks) over SIMD16 lanes.
        (100, {"op": RCOp.FXPMUL16,
               "update": inck(3, and_mask=29, xor_mask=5)}),
        # Distinct per-cell instructions.
        (266, {"extra_rcs": _PER_CELL_RCS}),
        # Read-modify-write butterfly (reads VB, writes VB): fresh
        # indices every trip, then a run that laps the slice.
        (20, {"dst": DST_VWR_B}),
        (48, {"dst": DST_VWR_B}),
    ], ids=["lapping-128", "simd16-xor-orbit-100", "per-cell-266",
            "butterfly-20", "butterfly-lapping-48"])
    def test_closed_form_loop_shapes(self, trips, shape):
        result = _run_both(
            lambda p: _broadcast_loop(p, trips, **shape), poke=_poke_ramp
        )
        assert result.superblocks == {
            "accelerated_loops": 1, "accelerated_trips": trips,
        }

    def test_counter_wrap_falls_back_to_exact_loop(self):
        # The counter starts near INT32_MAX and wraps mid-loop: the
        # closed form is invalid, so the runtime range guard rewinds the
        # launch and replays it on the reference, naming the loop.
        def config(params):
            b = ProgramBuilder(n_rcs=params.rcs_per_column)
            b.srf(4, 2**31 - 40)  # SETI immediates are narrow; SRF isn't
            b.emit(lcu=ldsrf(0, 4))
            b.label("loop")
            b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(1))]
                   * params.rcs_per_column, lcu=addi(0, 7))
            b.emit(lcu=bge(0, 100, "loop"))  # wraps negative, then exits
            b.exit()
            return KernelConfig(name="wrap", columns={0: b.build()})

        results = {}
        states = {}
        for engine in ENGINES:
            sim = Vwr2a(engine=engine)
            results[engine] = sim.execute(config(sim.params))
            states[engine] = _full_state(sim)
        assert states["reference"] == states["auto"]
        ref, auto = results["reference"], results["auto"]
        assert (auto.cycles, auto.events) == (ref.cycles, ref.events)
        assert auto.engine == "reference"
        assert auto.fallback_reason \
            == "column 0: the counter of the loop at PC 1 leaves int32"
        assert auto.superblocks is None
        assert sim.engine_decisions == {"reference": 1}

    def test_data_dependent_loop_bails_out_mid_kernel(self):
        # First loop closed-form; second loop's bound is loaded from the
        # SPM via LDSRF every trip — unprovable, runs per-trip, and the
        # whole kernel stays bit-identical.
        def config(params):
            b = ProgramBuilder(n_rcs=params.rcs_per_column)
            b.srf(0, 0)
            b.srf(1, 1)
            b.srf(2, 2)
            b.srf(3, 5)  # SPM word holding the data-dependent bound
            b.emit(lsu=ld_vwr(Vwr.A, 0))
            b.emit(lsu=ld_vwr(Vwr.B, 1), lcu=seti(0, 0),
                   mxcu=setk(params.slice_words - 1))
            b.label("fast")
            b.emit(rcs=[rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B)]
                   * params.rcs_per_column, mxcu=inck(1), lcu=addi(0, 1))
            b.emit(lcu=blt(0, 16, "fast"))
            b.emit(lcu=seti(0, 0))
            b.label("slow")
            b.emit(lcu=ldsrf(1, 3))     # bound <- SRF[3] (data-derived)
            b.emit(rcs=[rc(RCOp.SSUB, DST_VWR_C, VWR_C, imm(1))]
                   * params.rcs_per_column, mxcu=inck(1), lcu=addi(0, 1))
            b.emit(lcu=blt(0, ("reg", 1), "slow"))
            b.emit(lsu=st_vwr(Vwr.C, 2))
            b.exit()
            return KernelConfig(name="mixed", columns={0: b.build()})

        def poke(sim):
            _poke_ramp(sim)
            sim.spm.poke_words(5, [9])

        result = _run_both(config, poke=poke)
        # Only the first loop is provable; the LDSRF loop ran per-trip.
        assert result.superblocks["accelerated_loops"] == 1

    def test_srf_bound_loop_is_closed_form(self):
        def config(params):
            b = ProgramBuilder(n_rcs=params.rcs_per_column)
            b.srf(0, 0)
            b.srf(1, 1)
            b.srf(2, 2)
            b.srf(3, 21)  # loop bound held in the SRF (loop-invariant)
            b.emit(lsu=ld_vwr(Vwr.A, 0))
            b.emit(lsu=ld_vwr(Vwr.B, 1), lcu=seti(0, 0),
                   mxcu=setk(params.slice_words - 1))
            b.label("loop")
            b.emit(rcs=[rc(RCOp.SMIN, DST_VWR_C, VWR_A, srf(3))]
                   * params.rcs_per_column, mxcu=inck(1), lcu=addi(0, 1))
            b.emit(lcu=blt(0, ("srf", 3), "loop"))
            b.emit(lsu=st_vwr(Vwr.C, 2))
            b.exit()
            return KernelConfig(name="srfbound", columns={0: b.build()})

        result = _run_both(config, poke=_poke_ramp)
        assert result.superblocks["accelerated_trips"] == 21


class TestTripCountForms:
    @settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
    @given(op=st.sampled_from((LCUOp.BLT, LCUOp.BGE)),
           delta=st.one_of(st.integers(1, 1 << 17),
                           st.integers(-(1 << 17), -1), st.just(0),
                           INT32S),
           v0=INT32S, bound=INT32S)
    def test_emitted_trip_count_equals_closed_form(self, op, delta, v0,
                                                   bound):
        # The compiler emits trip_count_lines as loop-entry source; the
        # footprint walk calls trip_count. Both must be one formula.
        summary = LoopSummary(
            pcs=(0,), branch=blt(0, 0, 0) if op is LCUOp.BLT
            else bge(0, 0, 0), srf=(), lcu=(("d", delta),), sites=(),
        )
        namespace = {"_v0": v0, "_bnd": bound}
        exec("\n".join(trip_count_lines(summary)), namespace)
        assert namespace["_t"] == trip_count(op, delta, v0, bound)


class TestChainFusion:
    def test_jump_chain_compiles_one_arm_per_block(self):
        params = ArchParams()
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.emit(rcs=[rc(RCOp.MOV, DST_R0, imm(3))] * 4, lcu=jump("mid"))
        b.label("end")
        b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(5))] * 4)
        b.exit()
        b.label("mid")
        b.emit(rcs=[rc(RCOp.SMUL, DST_R0, R0, imm(2))] * 4,
               lcu=jump("end"))
        program = b.build()
        compiled = compile_program(program, params)
        # Three basic blocks, one arm each: a JUMP chain is not fused.
        assert [(blk.leader, blk.n_cycles) for blk in compiled.blocks] \
            == [(0, 1), (1, 2), (3, 1)]

        _run_both(lambda _: KernelConfig(name="chain", columns={0: program}))

    def test_branch_target_blocks_stay_dispatchable(self):
        # The loop back-edge lands on "head", so "head" leads its own
        # block, apart from its straight-line predecessor.
        params = ArchParams()
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.emit(lcu=seti(0, 0))
        b.label("head")
        b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(1))] * 4)
        b.emit(lcu=addi(0, 1))
        b.emit(lcu=blt(0, 5, "head"))
        b.exit()
        program = b.build()
        leaders = [pcs[0] for pcs in block_pcs(tuple(program.bundles))]
        assert 1 in leaders  # "head" leads its own (loop) block

        _run_both(lambda _: KernelConfig(name="multi", columns={0: program}))

    def test_jump_split_loop_runs_per_trip(self):
        # A loop whose body a JUMP splits into two blocks has no
        # self-loop block, so no closed form: it runs trip by trip on
        # the compiled engine, bit-identical to the reference.
        params = ArchParams()
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.emit(lcu=seti(0, 0), mxcu=setk(0))
        b.label("head")
        b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(2))] * 4,
               lcu=jump("tail"))
        b.label("tail")
        b.emit(rcs=[rc(RCOp.SSUB, DST_R0, R0, imm(1))] * 4,
               lcu=addi(0, 1))
        b.emit(lcu=blt(0, 40, "head"))
        b.exit()
        program = b.build()
        compiled = compile_program(program, params)
        assert not any(blk.closed_form for blk in compiled.blocks)

        results = {}
        states = {}
        for engine in ENGINES:
            sim = Vwr2a(engine=engine)
            results[engine] = sim.execute(
                KernelConfig(name="nest", columns={0: program})
            )
            states[engine] = _full_state(sim)
        assert states["reference"] == states["auto"]
        assert results["auto"].engine == "compiled"
        assert results["auto"].superblocks["accelerated_trips"] == 0

    def test_pc_histogram_covers_superblock_members(self):
        sim = Vwr2a(engine="auto")
        config = _broadcast_loop(sim.params, 16)
        result = sim.execute(config)
        assert result.engine == "compiled"
        bound = sim._launches[id(config)].bounds[0]
        assert sum(bound.pc_histogram()) == result.column_steps[0]


class TestRunResultSuperblocks:
    def test_reference_runs_carry_no_superblock_data(self):
        sim = Vwr2a(engine="reference")
        result = sim.execute(_broadcast_loop(sim.params, 16))
        assert result.superblocks is None
        # ... but the launch's own event delta, like every engine.
        assert dict(result.events)["column.cycle"] == result.column_steps[0]

    def test_launch_events_count_column_steps(self):
        sim = Vwr2a(engine="auto")
        result = sim.execute(_broadcast_loop(sim.params, 16))
        assert result.engine == "compiled"
        assert dict(result.events)["column.cycle"] \
            == result.column_steps[0]
