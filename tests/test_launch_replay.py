"""Warm launches replay what was built once.

A transform of a given size asks its launch schedule of one planner
(:func:`repro.kernels.fft.stage_schedule`,
:func:`repro.kernels.fft2048.combine_schedule`), so a warm transform, or
a new engine of a size already run, builds and looks up no kernel. A
launch record keeps each column's initial SRF wrapped to int32 and, per
count vector, the launch's :class:`~repro.core.cgra.RunResult`, so equal
launches return equal results without rebuilding them.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from repro.asm.builder import ProgramBuilder
from repro.core.cgra import Vwr2a
from repro.engine import executor
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp
from repro.kernels import KernelRunner, RfftEngine, SplitFftEngine
from repro.kernels.delineation import build_delineation_kernel
from repro.kernels.fft import FftEngine, build_batch_kernel, stage_schedule
from repro.kernels.fft2048 import _combine_column_program, combine_schedule
from repro.kernels.rfft import (
    _gh_column_program,
    _mirror_column_program,
    _xw_column_program,
)
from repro.kernels.vector import elementwise_kernel

#: The kernel builders a warm transform must not ask for anything.
BUILDERS = (build_batch_kernel, _combine_column_program,
            _gh_column_program, _xw_column_program, _mirror_column_program)


def _signal(n: int, scale: int) -> list:
    return [((i * 37 + (i * i) % 211) % (2 * scale)) - scale
            for i in range(n)]


def _infos() -> list:
    return [builder.cache_info() for builder in BUILDERS]


def test_warm_split_transform_and_new_rfft_engine_ask_no_builder():
    runner = KernelRunner()
    fft = SplitFftEngine(runner, 2048)
    fft.run(_signal(2048, 1000), _signal(2048, 700))   # cold
    RfftEngine(runner, 512).run(_signal(512, 900), collect=False)
    before = _infos()
    runner.reset_sram()
    fft.run(_signal(2048, 600), _signal(2048, 900))
    assert _infos() == before
    # mbiotracker builds an RfftEngine per window: a new engine of a
    # size already run replays the same schedule.
    RfftEngine(runner, 512).run(_signal(512, 400), collect=False)
    assert _infos() == before


def test_one_schedule_per_geometry_and_size():
    params = Vwr2a().params
    engines = [FftEngine(KernelRunner(), 1024) for _ in range(2)]
    plans = [engine.plan for engine in engines]
    schedules = [stage_schedule(params, p.n, p.resident_tables)
                 for p in plans]
    assert schedules[0] is schedules[1]
    assert len(schedules[0]) == plans[0].stages
    launched = [config for stage in schedules[0] for _, config in stage]
    assert len({id(config) for config in launched}) == len(launched)
    assert combine_schedule(params, 2048) is combine_schedule(params, 2048)


def _delineation(sim):
    n = 96
    rng = random.Random(7)
    windows = [
        [rng.randint(-400, 400) for _ in range(n)],
        [int(300 * math.sin(i / 5)) for i in range(n)],
    ]
    out_word = 2 * sim.params.line_words
    config = build_delineation_kernel(
        sim.params, n, 50, 0, out_word, out_word + n + 2
    )
    sim.store_kernel(config)
    return config, windows


@pytest.mark.parametrize("cap", [executor.Launch.FOLD_CAP, 1])
def test_data_dependent_results_follow_each_count_vector(monkeypatch, cap):
    """Each window of a delineation scan gets the cycles and column steps
    the reference interpreter gives it, however the fold memo evicts."""
    monkeypatch.setattr(executor.Launch, "FOLD_CAP", cap)
    sims = {engine: Vwr2a(engine=engine) for engine in ("auto", "reference")}
    results = {engine: [] for engine in sims}
    for engine, sim in sims.items():
        config, windows = _delineation(sim)
        for launch in range(6):
            sim.spm.poke_words(0, windows[launch % 2])
            results[engine].append(sim.run(config.name))
    auto, reference = results["auto"], results["reference"]
    assert {r.engine for r in auto} == {"compiled"}
    for mine, theirs in zip(auto, reference):
        assert (mine.cycles, mine.column_steps, mine.events) \
            == (theirs.cycles, theirs.column_steps, theirs.events)
    assert auto[0].cycles != auto[1].cycles
    assert auto[0::2] == [auto[0]] * 3 and auto[1::2] == [auto[1]] * 3


def test_equal_counts_return_equal_results_that_pickle():
    sim = Vwr2a()
    config = elementwise_kernel(
        sim.params, RCOp.SADD, sim.params.line_words, 4, 5, 6
    )
    sim.store_kernel(config)
    first, second = sim.run(config.name), sim.run(config.name)
    assert first.engine == "compiled"
    assert first == second
    assert first.superblocks is not None
    # Pool and fleet workers ship launch logs of these results.
    copy = pickle.loads(pickle.dumps([first, second]))
    assert copy == [first, second]


@pytest.mark.parametrize("engine", ["auto", "reference"])
def test_srf_init_wraps_to_int32_on_every_launch(engine):
    sim = Vwr2a(engine=engine)
    builder = ProgramBuilder()
    builder.exit()
    program = builder.build()
    program.srf_init = {0: 2**31, 3: -2**31 - 1, 5: 7}
    config = KernelConfig(name="srf_wrap", columns={0: program})
    sim.store_kernel(config)
    srf = sim.columns[0].srf
    for _ in range(3):
        srf.poke(0, 11)
        srf.poke(3, 12)
        sim.run(config.name)
        assert [srf.peek(i) for i in (0, 3, 5)] \
            == [-2**31, 2**31 - 1, 7]
    # The record keeps the wrapped form; the program keeps what it was
    # given.
    (_, _, srf_init), = sim._launches[id(config)].programs
    assert srf_init == ((0, -2**31), (3, 2**31 - 1), (5, 7))
    assert program.srf_init[0] == 2**31
