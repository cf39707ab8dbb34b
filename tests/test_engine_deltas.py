"""Isolation tests for the static event-delta layer and the column order.

``bundle_event_delta`` is asserted against the reference interpreter one
bundle class at a time (every unit, operand kind and op family), instead
of only through whole-kernel differentials; the compiled path's column
order (each column's dispatch loop to EXIT in turn, cycles = the longest
column) is pinned down explicitly; and every engine's per-launch event
record (``RunResult.events``) is checked against the shared tally.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.arch import ArchParams
from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.core.column import Column
from repro.core.events import Ev, EventCounters
from repro.core.spm import Scratchpad
from repro.engine import executor
from repro.engine.deltas import bundle_event_delta
from repro.isa.bundle import make_bundle
from repro.isa.fields import (
    DST_R0,
    DST_R1,
    DST_VWR_B,
    DST_VWR_C,
    R0,
    R1,
    RCB,
    RCT,
    VWR_A,
    ShuffleMode,
    Vwr,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import LCU_NOP, addi, beq, blt, exit_, jump, ldsrf, seti
from repro.isa.lsu import ld_srf, ld_vwr, set_srf, shuf, st_srf, st_vwr
from repro.isa.mxcu import MXCUInstr, MXCUOp, inck, setk
from repro.isa.program import ColumnProgram, KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels.delineation import build_delineation_kernel
from repro.kernels.vector import elementwise_kernel
from test_spm_conflicts import _full_state, _producer_consumer

PARAMS = ArchParams()


def _reference_delta(bundle) -> dict:
    """Events one reference execution of ``bundle`` logs, in isolation."""
    events = EventCounters()
    spm = Scratchpad(PARAMS.spm_lines, PARAMS.line_words, events)
    column = Column(0, PARAMS, spm, events)
    program = ColumnProgram(
        bundles=[bundle],
        # Valid SPM addresses for the LSU classes under test.
        srf_init={0: 3, 1: 17, 2: 2, 3: -7},
    )
    column.load(program)
    before = events.snapshot()
    column.step()
    return events.diff(before)


#: One bundle per delta class: (label, bundle).
BUNDLE_CASES = [
    ("empty", make_bundle()),
    ("rc_alu_classes", make_bundle(rcs=[
        rc(RCOp.SADD, DST_R0, VWR_A, imm(3)),
        rc(RCOp.SMUL, DST_R1, imm(-2), imm(9)),
        rc(RCOp.SRA, DST_VWR_B, VWR_A, imm(2)),
        rc(RCOp.LXOR, DST_VWR_C, VWR_A, imm(0xF)),
    ], n_rcs=4)),
    ("rc_reg_and_neighbour_reads", make_bundle(rcs=[
        rc(RCOp.SADD, DST_R0, R0, R1),
        rc(RCOp.MOV, DST_R1, RCT),
        rc(RCOp.SMAX, DST_VWR_C, RCB, R0),
        rc(RCOp.LNOT, dst_srf(5), R1),
    ], n_rcs=4)),
    ("rc_srf_broadcast_dedup", make_bundle(rcs=[
        # One broadcast SRF read per distinct entry, not per consumer.
        rc(RCOp.SADD, DST_R0, srf(3), imm(1)),
        rc(RCOp.SSUB, DST_R0, srf(3), imm(2)),
        rc(RCOp.SMIN, DST_R1, srf(2), srf(3)),
        rc(RCOp.FXPMUL16, DST_VWR_B, srf(2), imm(7)),
    ], n_rcs=4)),
    ("mxcu_setk", make_bundle(mxcu=setk(5))),
    ("mxcu_upd_imm", make_bundle(mxcu=inck(2, and_mask=7, xor_mask=1))),
    ("mxcu_upd_srf_mask", make_bundle(
        mxcu=MXCUInstr(op=MXCUOp.UPD, inc=1, srf_and=2),
    )),
    ("lsu_ld_vwr_inc", make_bundle(lsu=ld_vwr(Vwr.A, 0, inc=1))),
    ("lsu_st_vwr_noinc", make_bundle(lsu=st_vwr(Vwr.B, 0))),
    ("lsu_ld_srf", make_bundle(lsu=ld_srf(1, 4, inc=2))),
    ("lsu_st_srf", make_bundle(lsu=st_srf(1, 2, inc=1))),
    ("lsu_set_srf", make_bundle(lsu=set_srf(6, 1234))),
    ("lsu_shuffle", make_bundle(lsu=shuf(ShuffleMode.BITREV_LO))),
    ("lcu_seti", make_bundle(lcu=seti(0, 11))),
    ("lcu_addi", make_bundle(lcu=addi(0, -3))),
    ("lcu_ldsrf", make_bundle(lcu=ldsrf(1, 2))),
    ("lcu_jump", make_bundle(lcu=jump(0))),
    ("lcu_branch_imm", make_bundle(lcu=blt(0, 99, 0))),
    ("lcu_branch_reg", make_bundle(lcu=beq(0, ("reg", 1), 0))),
    ("lcu_branch_sr", make_bundle(lcu=blt(0, ("srf", 2), 0))),
    ("lcu_exit", make_bundle(lcu=exit_())),
]


class TestBundleDeltas:
    @pytest.mark.parametrize(
        "bundle", [case[1] for case in BUNDLE_CASES],
        ids=[case[0] for case in BUNDLE_CASES],
    )
    def test_static_delta_matches_reference_step(self, bundle):
        assert bundle_event_delta(bundle, PARAMS) \
            == _reference_delta(bundle)


def _two_column_config(params) -> KernelConfig:
    """Asymmetric two-column kernel (different per-column cycle counts)."""
    columns = {}
    for col, bound in enumerate((5, 17)):
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.emit(lcu=seti(0, 0))
        b.label("loop")
        b.emit(rcs=[rc(RCOp.SADD, DST_R0, R0, imm(col + 1))]
               * params.rcs_per_column, lcu=addi(0, 1))
        b.emit(lcu=blt(0, bound, "loop"))
        b.emit(lcu=LCU_NOP)
        b.exit()
        columns[col] = b.build()
    return KernelConfig(name="order", columns=columns)


class TestColumnOrder:
    def test_columns_run_to_exit_one_after_another(self, monkeypatch):
        calls = []
        original = executor.BoundColumn.run_to_exit

        def recording(self, name, max_cycles):
            calls.append(self.column.index)
            return original(self, name, max_cycles)

        monkeypatch.setattr(executor.BoundColumn, "run_to_exit", recording)
        states = {}
        for engine in ("reference", "auto"):
            sim = Vwr2a(engine=engine)
            result = sim.execute(_two_column_config(sim.params))
            assert result.cycles == max(result.column_steps.values())
            assert result.engine == (
                "reference" if engine == "reference" else "compiled"
            )
            states[engine] = (
                result.cycles,
                result.column_steps,
                _full_state(sim, 0),
                _full_state(sim, 1),
            )
        # One dispatch loop per column, in column order, each to EXIT.
        assert calls == [0, 1]
        assert states["auto"] == states["reference"]


def _one_column_config(params) -> KernelConfig:
    return KernelConfig(
        name="one", columns={0: _two_column_config(params).columns[1]}
    )


class TestLaunchEvents:
    """``RunResult.events`` is the launch's own slice of the shared tally."""

    @pytest.mark.parametrize("engine", ["reference", "auto"])
    @pytest.mark.parametrize("build,path", [
        pytest.param(_one_column_config, "compiled", id="one-column"),
        pytest.param(_two_column_config, "compiled", id="two-column"),
        pytest.param(
            lambda params: _producer_consumer(), "reference",
            id="conflicting",
        ),
    ])
    def test_events_equal_the_launch_diff(self, engine, build, path):
        sim = Vwr2a(engine=engine)
        config = build(sim.params)
        sim.store_kernel(config)
        before = sim.events.snapshot()
        result = sim.run(config.name)
        assert result.engine == ("reference" if engine == "reference"
                                 else path)
        expected = _launch_diff(sim, config, before)
        assert dict(result.events) == expected
        assert [name for name, _ in result.events] == sorted(expected)

    @pytest.mark.parametrize("cap", [executor.Launch.FOLD_CAP, 1])
    def test_data_dependent_launches_fold_per_count_vector(
        self, monkeypatch, cap
    ):
        """A delineation scan's block counts follow its window, so two
        windows run alternately keep two count vectors in its launch
        record's fold memo, while a deterministic kernel launched between
        them keeps one; every launch's events still equal its own tally
        diff, and the memo stays within its cap."""
        monkeypatch.setattr(executor.Launch, "FOLD_CAP", cap)
        sim = Vwr2a(engine="auto")
        params = sim.params
        n = 96
        rng = random.Random(7)
        windows = [
            [rng.randint(-400, 400) for _ in range(n)],
            [int(300 * math.sin(i / 5)) for i in range(n)],
        ]
        out_word = 2 * params.line_words
        config = build_delineation_kernel(
            params, n, 50, 0, out_word, out_word + n + 2
        )
        steady = elementwise_kernel(
            params, RCOp.SADD, params.line_words, 4, 5, 6
        )
        sim.store_kernel(config)
        sim.store_kernel(steady)
        seen = []
        steady_events = set()
        for launch in range(6):
            sim.spm.poke_words(0, windows[launch % 2])
            before = sim.events.snapshot()
            result = sim.run(config.name)
            assert result.engine == "compiled"
            assert dict(result.events) == _launch_diff(sim, config, before)
            seen.append(result.events)
            assert len(sim._launches[id(config)].folds) <= cap
            before = sim.events.snapshot()
            result = sim.run(steady.name)
            assert result.engine == "compiled"
            assert dict(result.events) == _launch_diff(sim, steady, before)
            steady_events.add(result.events)
        assert seen[0] != seen[1]
        assert seen[0::2] == [seen[0]] * 3 and seen[1::2] == [seen[1]] * 3
        assert len(steady_events) == 1
        assert len(sim._launches[id(steady)].folds) == 1
        if cap > 1:
            assert len(sim._launches[id(config)].folds) == 2


def _launch_diff(sim, config, before) -> dict:
    """The launch's tally diff minus the configuration load, which the
    run charges before the engine starts."""
    programs = config.columns.values()
    load = {
        Ev.CONFIG_WORD: sum(len(p.bundles) for p in programs),
        Ev.SRF_WRITE: sum(len(p.srf_init) for p in programs),
    }
    expected = sim.events.diff(before)
    for name, n in load.items():
        expected[name] = expected.get(name, 0) - n
    return {name: n for name, n in expected.items() if n}
