"""Cold set-up does each distinct piece once.

A configuration word is hazard-checked once per process, a basic block
is lowered once, and a closed-form loop is compiled once, as its own
loop function shared by every program that runs it
(:mod:`repro.core.hazards`, :mod:`repro.engine.compiler`). These
tests empty the process-wide memos first, so they see a cold process.
"""

from __future__ import annotations

import pytest

from repro.arch import DEFAULT_SPEC
from repro.asm.builder import ProgramBuilder
from repro.core import StructuralHazardError, Vwr2a
from repro.core import hazards
from repro.engine import compiler, superblocks
from repro.engine.compiler import compile_program
from repro.isa import ColumnProgram, KernelConfig, Vwr
from repro.isa.fields import DST_VWR_C, VWR_A, imm
from repro.isa.lcu import addi, blt, ldsrf, seti
from repro.isa.lsu import ld_vwr, set_srf, st_vwr
from repro.isa.mxcu import inck, setk
from repro.isa.rc import RCOp, rc
from repro.kernels import KernelRunner, SplitFftEngine


@pytest.fixture
def cold(monkeypatch):
    """Empty process-wide memos; returns the ``compile`` and
    ``check_bundle`` calls made while the test runs."""
    monkeypatch.setattr(superblocks, "_SHAPES", {})
    monkeypatch.setattr(compiler, "_BLOCKS", {})
    monkeypatch.setattr(compiler, "_CODES", {})
    monkeypatch.setattr(hazards, "_HAZARD_FREE", {})
    calls = {"compile": [], "check_bundle": []}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(compiler, "compile", counting("compile", compile),
                        raising=False)
    monkeypatch.setattr(hazards, "check_bundle",
                        counting("check_bundle", hazards.check_bundle))
    return calls


def _fft2048_programs(runner) -> list:
    vwr2a = runner.soc.vwr2a
    return [program for name in vwr2a.config_mem.kernels()
            for program in vwr2a.config_mem.get(name).columns.values()]


def test_cold_fft2048_compiles_each_distinct_piece_once(cold):
    runner = KernelRunner()
    SplitFftEngine(runner, 2048).run([7] * 2048, [-3] * 2048)
    params = runner.soc.vwr2a.params
    programs = _fft2048_programs(runner)
    compiled = [compile_program(p, params) for p in programs]
    sources = {c.source for c in compiled}
    loops = {loop for c in compiled for loop in c.loops}
    loop_keys = [key for key, block in compiler._BLOCKS.items()
                 if block.loop is not None]
    assert len(loop_keys) == len(loops)
    # One compile() per distinct _run source and per distinct loop key.
    assert len(cold["compile"]) == len(sources) + len(loops)
    assert len(sources) < len(programs)
    assert len(loops) < sum(len(c.loops) for c in compiled)


def test_cold_fft2048_checks_each_configuration_word_once(cold):
    """Fresh copies of the FFT-2048 set's programs take the full store
    path: one hazard check per distinct configuration word."""
    runner = KernelRunner()
    SplitFftEngine(runner, 2048).run([5] * 2048, [9] * 2048)
    programs = _fft2048_programs(runner)
    sim = Vwr2a()
    for i, program in enumerate(programs):
        copy = ColumnProgram(list(program.bundles), dict(program.srf_init))
        sim.store_kernel(KernelConfig(name=f"copy{i}", columns={0: copy}))
    words = {word for p in programs for word in p._fingerprint}
    assert len(cold["check_bundle"]) == len(words)
    assert len(words) < sum(len(p.bundles) for p in programs)
    assert sim.config_mem.stats.hazard_misses == len(programs)


def test_stage_programs_share_a_vector_pass(cold):
    """Two stage programs with different configuration words run the same
    vector pass through one loop code object."""
    runner = KernelRunner()
    SplitFftEngine(runner, 2048).run([1] * 2048, [2] * 2048)
    params = runner.soc.vwr2a.params
    users = {}
    for program in _fft2048_programs(runner):
        for loop in compile_program(program, params).loops:
            users.setdefault(loop, set()).add(program._fingerprint)
    assert any(len(words) > 1 for words in users.values())


def _slice_loop_program():
    """A counted loop over VWR slices, valid on 16- and 32-word slices."""
    b = ProgramBuilder()
    b.srf(0, 0)
    b.srf(1, 1)
    b.emit(lsu=ld_vwr(Vwr.A, 0), lcu=seti(0, 0), mxcu=setk(0))
    b.label("loop")
    b.emit(rcs=[rc(RCOp.SADD, DST_VWR_C, VWR_A, imm(1))] * 4,
           mxcu=inck(1, and_mask=15), lcu=addi(0, 1))
    b.emit(lcu=blt(0, 16, "loop"))
    b.emit(lsu=st_vwr(Vwr.C, 1))
    b.exit()
    return b.build()


def test_each_geometry_gets_its_own_loop_code(cold):
    program = _slice_loop_program()
    narrow = DEFAULT_SPEC.vary("vwr64", vwr_words=64)
    loops = []
    for sim in (Vwr2a(), Vwr2a(spec=narrow)):
        config = KernelConfig(name="slices", columns={0: program})
        sim.store_kernel(config)
        (loop,) = compile_program(program, sim.params).loops
        loops.append(loop)
        assert sim.execute(config).engine == "compiled"
    assert narrow.arch.slice_words == 16 != Vwr2a().params.slice_words
    assert loops[0] is not loops[1]
    assert loops[0].code is not loops[1].code
    assert loops[0].source != loops[1].source


def _hazardous(pad: int):
    """A program whose bundle at PC ``pad`` asks the SRF port twice."""
    b = ProgramBuilder()
    for _ in range(pad):
        b.emit()
    b.emit(lcu=ldsrf(0, 0), lsu=set_srf(1, 2))
    b.exit()
    return b.build()


@pytest.mark.parametrize("pad", [0, 3])
def test_hazard_raises_at_its_own_pc_on_every_store(cold, pad):
    sim = Vwr2a()
    # The clean words around the hazard are remembered; the hazard is not.
    for _ in range(3):
        config = KernelConfig(name="bad", columns={0: _hazardous(pad)})
        with pytest.raises(StructuralHazardError) as raised:
            sim.store_kernel(config)
        assert raised.value.pc == pad
    assert "bad" not in sim.config_mem
    assert [pc for _, pc in cold["check_bundle"]].count(pad) == 3


def test_hazard_counters_keep_counting_column_programs(cold):
    """The memo saves the checks, not the per-column counts: a fresh
    config of two columns whose words all passed before still counts two
    hazard misses."""
    program = _slice_loop_program()
    sim = Vwr2a()
    sim.store_kernel(KernelConfig(name="first", columns={0: program}))
    checked = len(cold["check_bundle"])
    before = sim.config_mem.stats.snapshot()
    sim.store_kernel(KernelConfig(name="again",
                                  columns={0: program, 1: program}))
    delta = sim.config_mem.stats.since(before)
    assert delta["hazard_misses"] == delta["encode_misses"] == 2
    assert len(cold["check_bundle"]) == checked
