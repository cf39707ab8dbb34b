"""Range-typed ALU lowering: generated code against the reference ALU.

The compiler (:mod:`repro.engine.compiler`) emits the int32 wrap only
where its operand-range rule says a result can leave int32. The rule rests
on one premise: every storage cell holds an int32. These tests pin the
rule's three parts:

* every RC op over every operand kind and edge value (immediates outside
  int32 included) agrees with ``alu_execute`` and with the reference
  column, commits included;
* hoisted commits stay exact behind the guarded wrap;
* the hot kernels' counted loops carry no unconditional wrap, and each
  of their closed-form loops is emitted once, as the one counted body of
  its loop function.

They also pin the premise: every storage write path leaves only int32
ints, whatever it is handed.
"""

from __future__ import annotations

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ArchParams
from repro.asm.builder import ProgramBuilder
from repro.core.alu import alu_execute
from repro.core.cgra import Vwr2a
from repro.core.column import Column
from repro.core.events import EventCounters
from repro.core.spm import Scratchpad
from repro.engine import compiler, superblocks
from repro.engine.compiler import compile_program
from repro.engine.executor import BoundColumn
from repro.isa.fields import (
    DST_R0,
    DST_R1,
    DST_VWR_C,
    R0,
    R1,
    RCB,
    RCT,
    VWR_A,
    VWR_B,
    ZERO,
    Vwr,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import addi, blt, ldsrf, seti
from repro.isa.lsu import ld_srf, ld_vwr, st_srf, st_vwr
from repro.isa.mxcu import inck, setk
from repro.isa.program import KernelConfig
from repro.isa.rc import RC_NOP, UNARY_OPS, RCOp, rc
from repro.app import WINDOW, respiration_signal
from repro.kernels import KernelRunner, SplitFftEngine
from repro.kernels.fir import build_fir_kernel, plan_fir
from repro.serve import serve_trace
from repro.soc.sram import BankedSram

INT32_MIN, INT32_MAX = -2**31, 2**31 - 1
EDGES = (INT32_MIN, -1, 0, 1, INT32_MAX)
WIDE_IMMS = (INT32_MIN - 1, INT32_MAX + 1, -2**40, 2**40)
OPS = [op for op in RCOp if op is not RCOp.NOP]

#: Operand kind -> (a-side operand, b-side operand). RC 1 and RC 2 both
#: run the op under test; the column state is primed so both read the
#: same (a, b) pair whatever the kind (see _prime).
KINDS = {
    "vwr": (VWR_A, VWR_B),
    "srf": (srf(0), srf(1)),
    "reg": (R0, R1),
    "latch": (RCT, RCB),
    "zero": (ZERO, ZERO),
    "imm": None,
}

GUARD_PREFIX = "if not -2147483648 <= "
#: Indent of a superblock's code: the body of its ``if pc == <leader>:``
#: arm, inside the generated function's ``while True:`` loop.
ARM = " " * 12
#: Indent of a loop function's body (a counted loop's code).
LOOP = " " * 4


@pytest.fixture
def private_compile_memo(monkeypatch):
    """The differential test compiles thousands of one-off programs: keep
    their shapes, blocks and code out of the process-wide memos, which
    other tests expect to still hold the kernels they compiled."""
    monkeypatch.setattr(superblocks, "_SHAPES", {})
    monkeypatch.setattr(compiler, "_BLOCKS", {})
    monkeypatch.setattr(compiler, "_CODES", {})


def _is_int32(value) -> bool:
    return type(value) is int and INT32_MIN <= value <= INT32_MAX


def _column(params) -> Column:
    events = EventCounters()
    spm = Scratchpad(params.spm_lines, params.line_words, events)
    return Column(0, params, spm, events)


def _prime(col, va: int, vb: int) -> None:
    """Every operand kind of RC 1 and RC 2 reads ``va`` (a) / ``vb`` (b)."""
    n = col.params.vwr_words
    col.vwrs[Vwr.A].write_wide([va] * n)
    col.vwrs[Vwr.B].write_wide([vb] * n)
    col.vwrs[Vwr.C].write_wide([0] * n)
    col.srf.poke_many({0: va, 1: vb, 7: 0})
    for regs in col.rc_regs:
        regs[:] = [va, vb]
    # RCT of RC i reads latch i-1, RCB latch i+1.
    col.rc_out[:] = [va, va, vb, vb]


def _state(col) -> dict:
    state = col.state_snapshot()
    for key in ("pc", "done", "steps"):
        del state[key]
    return state


def _side(kind: str, side: int):
    """``[(operand, value or None), ...]`` for one operand side."""
    if kind == "imm":
        return [(imm(v), v) for v in EDGES + WIDE_IMMS]
    if kind == "zero":
        return [(ZERO, 0)]
    return [(KINDS[kind][side], None)]


def _cases(op):
    b_kinds = ["zero"] if op in UNARY_OPS else list(KINDS)
    for ka in KINDS:
        for kb in b_kinds:
            for a, a_val in _side(ka, 0):
                for b, b_val in _side(kb, 1):
                    yield a, a_val, b, b_val


@pytest.mark.usefixtures("private_compile_memo")
@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_generated_alu_matches_reference(op):
    """Every operand-kind pair and edge value: the raw result equals
    ``alu_execute`` and the whole column state equals the reference's
    (SRF and VWR commits wrap there, latches keep the raw value)."""
    params = ArchParams()
    ref, cmp_ = _column(params), _column(params)
    checked = 0
    for a, a_val, b, b_val in _cases(op):
        builder = ProgramBuilder(n_rcs=params.rcs_per_column)
        builder.emit(rcs=[RC_NOP, rc(op, dst_srf(7), a, b),
                          rc(op, DST_VWR_C, a, b), RC_NOP])
        builder.exit()
        program = builder.build()
        cmp_.load(program)
        bound = BoundColumn(cmp_, compile_program(program, params))
        for va in EDGES if a_val is None else (a_val,):
            for vb in EDGES if b_val is None else (b_val,):
                ref.load(program)
                _prime(ref, va, vb)
                ref.step()
                cmp_.load(program)
                _prime(cmp_, va, vb)
                bound.run_to_exit(op.name, 10)
                expected = alu_execute(op, va, vb)
                assert cmp_.rc_out[1] == expected == cmp_.rc_out[2], \
                    (op, a, b, va, vb)
                assert _state(cmp_) == _state(ref), (op, a, b, va, vb)
                checked += 1
    # 30 a-side values (4 storage kinds x 5 edges, zero, 9 immediates),
    # times as many b-side values for binary ops.
    assert checked == (30 if op in UNARY_OPS else 900)


def _run_columns(program) -> dict:
    """Run ``program`` on a reference and a compiled column; both states."""
    params = ArchParams()
    states = {}
    for engine in ("reference", "compiled"):
        col = _column(params)
        col.load(program)
        if engine == "reference":
            while not col.done:
                col.step()
        else:
            BoundColumn(col, compile_program(program, params)).run_to_exit(
                "edges", 10_000
            )
        states[engine] = _state(col)
    return states


def test_wide_immediate_widens_the_latches():
    """A hand-built program whose SMAX latches an immediate outside int32
    reads its latches as unbounded: the MOV/SADD/LAND that consume them
    wrap exactly as the reference does."""
    b = ProgramBuilder()
    b.emit(rcs=[rc(RCOp.SMAX, DST_R0, ZERO, imm(2**40 + 5))] * 4)
    b.emit(rcs=[rc(RCOp.MOV, DST_R1, R0),
                rc(RCOp.SADD, DST_R1, RCT, imm(1)),
                rc(RCOp.LAND, dst_srf(3), RCB, R0),
                rc(RCOp.SRA, DST_VWR_C, R0, imm(3))])
    b.exit()
    states = _run_columns(b.build())
    assert states["compiled"] == states["reference"]
    assert states["compiled"]["rc_regs"][0] == [2**40 + 5, 5]


def test_lsu_and_lcu_writes_wrap_at_range_edges():
    """Post-increments and ADDI leave int32 only with hand-built
    immediates; the guarded form wraps them like the reference."""
    b = ProgramBuilder()
    b.srf(0, 5)
    b.srf(1, 17)
    b.srf(2, INT32_MAX - 2)
    b.srf(4, 40)
    b.emit(lsu=ld_vwr(Vwr.A, 0, inc=INT32_MAX), lcu=ldsrf(0, 2))
    b.emit(lsu=st_srf(2, 1, inc=INT32_MIN - 20), lcu=addi(0, 7))
    b.emit(lsu=ld_srf(3, 4, inc=-5), lcu=addi(1, INT32_MIN))
    b.exit()
    states = _run_columns(b.build())
    assert states["compiled"] == states["reference"]
    srf_state = states["compiled"]["srf"]
    assert srf_state[:2] == [5 + INT32_MAX - 2**32, INT32_MAX - 2]
    assert srf_state[4] == 35
    assert states["compiled"]["lcu_regs"][:2] == [INT32_MIN + 4, INT32_MIN]


def _hoisting_program(params):
    """Counted loop whose latch and R0 commits follow wrapping ops."""
    b = ProgramBuilder(n_rcs=params.rcs_per_column)
    b.srf(0, 0)
    b.srf(1, 1)
    b.srf(2, 2)
    b.emit(lsu=ld_vwr(Vwr.A, 0))
    b.emit(lsu=ld_vwr(Vwr.B, 1), lcu=seti(0, 0),
           mxcu=setk(params.slice_words - 1))
    b.label("loop")
    b.emit(rcs=[rc(RCOp.SADD, DST_R0, VWR_A, VWR_B)] * params.rcs_per_column,
           mxcu=inck(1, and_mask=params.slice_words - 1), lcu=addi(0, 1))
    b.emit(rcs=[rc(RCOp.SMUL, DST_VWR_C, VWR_A, VWR_B)]
           * params.rcs_per_column, lcu=blt(0, 20, "loop"))
    b.emit(lsu=st_vwr(Vwr.C, 2))
    b.exit()
    return b.build()


def test_hoisted_commits_follow_guarded_wrap():
    params = ArchParams()
    program = _hoisting_program(params)
    (loop,) = compile_program(program, params).loops
    source = loop.source
    assert f"\n{LOOP}for _ in range(_t):\n" in source
    # The latch commit hoists after the counted loop (one indent level
    # above its body), behind the in-loop guarded wrap of the same
    # temporary; R0's commit stays in the body, since the SMUL
    # reassigns v0 later in the trip.
    assert f"\n{LOOP}O[0] = v0\n" in source
    assert f"\n{LOOP}    R0[0] = v0\n" in source
    assert f"\n{LOOP}    " + GUARD_PREFIX + "v0 <= 2147483647:" in source
    states = {}
    for engine in ("reference", "auto"):
        sim = Vwr2a(engine=engine)
        sim.spm.poke_words(0, [INT32_MAX - 3 * i for i in range(256)])
        result = sim.execute(KernelConfig(name="hoist", columns={0: program}))
        col = sim.columns[0]
        states[result.engine] = (
            sim.spm.snapshot(), _state(col), result.cycles
        )
    assert states["compiled"] == states["reference"]
    col_state = states["compiled"][1]
    # The loop really wrapped: 2 * (INT32_MAX - x) leaves int32.
    assert any(v < 0 for v in col_state["rc_regs"][0])


def _counted_bodies(compiled) -> list:
    """The per-trip lines of every counted loop of a compiled program
    (each in one of its loop functions)."""
    bodies = []
    body = None
    lines = [line for loop in compiled.loops
             for line in loop.source.splitlines()]
    for line in lines:
        text = line.lstrip()
        indent = len(line) - len(text)
        if body is not None:
            if indent > loop_indent:
                body.append(text)
                continue
            bodies.append(body)
            body = None
        if text == "for _ in range(_t):":
            body, loop_indent = [], indent
    if body is not None:
        bodies.append(body)
    return bodies


def _wraps(bodies) -> tuple:
    """(full wraps, guarded wraps) over a list of counted-loop bodies."""
    lines = [line for body in bodies for line in body]
    guarded = sum(line.startswith(GUARD_PREFIX) for line in lines)
    full = sum("4294967295" in line for line in lines) - guarded
    return full, guarded


def test_fir_counted_loops_carry_no_full_wrap():
    params = ArchParams()
    taps = [133, -402, 1201, 4088, 8190, 9999, 8190, 4088, 1201, -402, 133]
    layout = plan_fir(params, 240, len(taps))
    config = build_fir_kernel(params, taps, layout, 0, layout.n_lines)
    bodies = []
    for program in config.columns.values():
        bodies += _counted_bodies(compile_program(program, params))
    assert bodies
    full, guarded = _wraps(bodies)
    # Taps are immediates: products need no wrap; only the accumulate
    # (two int32 registers) is guarded.
    assert full == 0
    assert guarded > 0


def test_fft2048_counted_loops_carry_only_guarded_wraps():
    runner = KernelRunner()
    engine = SplitFftEngine(runner, 2048)
    engine.run([0] * 2048, [0] * 2048)
    vwr2a = runner.soc.vwr2a
    bodies = []
    for name in vwr2a.config_mem.kernels():
        for program in vwr2a.config_mem.get(name).columns.values():
            bodies += _counted_bodies(
                compile_program(program, vwr2a.params)
            )
    full, guarded = _wraps(bodies)
    assert full == 0
    assert guarded > 0


def _stored_programs(vwr2a) -> list:
    """Compiled form of every column program in ``vwr2a``'s store."""
    return [
        compile_program(program, vwr2a.params)
        for name in vwr2a.config_mem.kernels()
        for program in vwr2a.config_mem.get(name).columns.values()
    ]


def _overwritten_slice_offsets(arm) -> list:
    """Slice offsets (``k1``, ``k2``, ...) that ``arm`` assigns and then
    assigns again before reading, in source order (a counted loop's body
    runs at least once, so its first lines follow the arm's entry)."""
    uses = {}
    for node in sorted(
        (node for node in ast.walk(arm) if isinstance(node, ast.Name)
         and node.id[:1] == "k" and node.id[1:].isdigit()),
        key=lambda node: (node.lineno, isinstance(node.ctx, ast.Store),
                          node.col_offset),
    ):
        uses.setdefault(node.id, []).append(node)
    return [
        (first.id, first.lineno)
        for nodes in uses.values()
        for first, then in zip(nodes, nodes[1:])
        if isinstance(first.ctx, ast.Store)
        and isinstance(then.ctx, ast.Store)
    ]


def test_paper_kernels_emit_each_closed_form_loop_once():
    """Every program the paper kernels compile (the FFT-2048 set, FIR and
    a served MBioTracker stream) is one function, and each of its
    closed-form loops is one counted ``for`` inside its loop function:
    the arm holds no loop of its own, only the call, and the loop
    function holds no ``while`` and no second, per-trip copy of its body.
    No FFT-2048 arm or loop function computes a slice offset it
    overwrites before reading."""
    fft = KernelRunner()
    SplitFftEngine(fft, 2048).run([0] * 2048, [0] * 2048)
    stream = KernelRunner()
    serve_trace(respiration_signal(2 * WINDOW), runner=stream)
    params = ArchParams()
    layout = plan_fir(params, 240, 11)
    fir = build_fir_kernel(params, [133] * 11, layout, 0, layout.n_lines)
    fft_programs = _stored_programs(fft.soc.vwr2a)
    fft_ids = {id(program) for program in fft_programs}
    programs = fft_programs + _stored_programs(stream.soc.vwr2a) \
        + [compile_program(p, params) for p in fir.columns.values()]
    loops = 0
    for program in programs:
        body = ast.parse(program.source).body
        assert [type(node) for node in body] == [ast.FunctionDef]
        (function,) = body
        (dispatch,) = [node for node in function.body
                       if isinstance(node, ast.While)]
        arms = {arm.test.comparators[0].value: arm for arm in dispatch.body}
        functions = {}
        for i, loop in enumerate(program.loops):
            (function,) = ast.parse(loop.source).body
            assert isinstance(function, ast.FunctionDef)
            functions[f"_lp{i}"] = function
        if id(program) in fft_ids:
            for leader, arm in [*arms.items(), *functions.items()]:
                assert _overwritten_slice_offsets(arm) == [], leader
        called = set()
        for block in program.blocks:
            arm = arms[block.leader]
            calls = [node.func.id for node in ast.walk(arm)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id in functions]
            assert not [node for node in ast.walk(arm)
                        if isinstance(node, (ast.For, ast.While))], \
                block.leader
            if not block.closed_form:
                assert calls == [], block.leader
                continue
            (name,) = calls
            called.add(name)
            statements = [
                node for node in ast.walk(functions[name])
                if isinstance(node, (ast.For, ast.While))
            ]
            assert [type(node) for node in statements] == [ast.For], \
                block.leader
            loops += 1
        assert called == set(functions)
    assert loops > 0


# -- the premise: storage holds only int32 ---------------------------------

WORDS = st.one_of(
    st.integers(-2**70, 2**70),
    st.sampled_from(EDGES + WIDE_IMMS),
    st.booleans(),
)


def _register_program(params):
    """Every RC op over registers, latches, SRF and VWRs, plus the LCU's
    register writes, committing into every register kind."""
    b = ProgramBuilder(n_rcs=params.rcs_per_column)
    b.emit(lcu=ldsrf(0, 0))
    b.emit(lcu=addi(0, 65535))
    b.emit(lcu=seti(1, -65536))
    for op in OPS:
        b.emit(rcs=[
            rc(op, DST_R0, VWR_A, VWR_B),
            rc(op, DST_VWR_C, R0, RCT),
            rc(op, dst_srf(3), srf(0), RCB),
            rc(op, DST_R1, R1, imm(-65536)),
        ])
    b.exit()
    return b.build()


@settings(max_examples=40, deadline=None)
@given(values=st.lists(WORDS, min_size=1, max_size=24), bit=st.integers(0, 31))
def test_every_storage_write_path_holds_int32(values, bit):
    params = ArchParams()
    sim = Vwr2a()
    spm = sim.spm
    sram = BankedSram()
    col = sim.columns[0]
    line = (values * params.line_words)[:params.line_words]
    n = len(values)

    spm.write_line(1, line)
    spm.write_words(0, values)
    spm.poke_words(n, values)
    for addr, value in enumerate(values):
        spm.write_word(2 * n + addr, value)
        spm.inject_stuck(3 * n + addr, value)
        spm.heal_word(4 * n + addr, value)
        spm.inject_bitflip(addr, bit)
    sram.write_words(0, values)
    sram.poke_words(n, values)
    for addr, value in enumerate(values):
        sram.write_word(2 * n + addr, value)
    for entry, value in zip(range(params.srf_entries), values):
        col.srf.write(entry, value)
    col.srf.poke(1, values[-1])
    col.srf.poke_many({2: values[0]})
    col.vwrs[Vwr.A].write_wide(line)
    col.vwrs[Vwr.B].write_word(5, values[0])
    col.vwrs[Vwr.B].poke(6, values[-1])

    # Registers and latches: every op of the reference and the compiled
    # column, fed by the storage above, commits int32 only.
    program = _register_program(params)
    other = sim.columns[1]
    other.state_restore(col.state_snapshot())
    col.load(program)
    while not col.done:
        col.step()
    other.load(program)
    BoundColumn(other, compile_program(program, params)).run_to_exit(
        "registers", 10_000
    )
    # Whole-state restores replay what the paths above stored.
    col.state_restore(col.state_snapshot())
    spm.restore(spm.snapshot())

    cells = spm.snapshot() + sram.peek_words(0, sram.n_words)
    for column in (col, other):
        state = column.state_snapshot()
        cells += state["srf"] + state["rc_out"] + state["lcu_regs"]
        cells += [v for words in state["vwrs"].values() for v in words]
        cells += [v for regs in state["rc_regs"] for v in regs]
    bad = [v for v in cells if not _is_int32(v)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("memory, method", [
    ("spm", "write_line"), ("spm", "write_words"), ("spm", "poke_words"),
    ("sram", "write_words"), ("sram", "poke_words"),
])
def test_batch_writers_wrap_ints_and_reject_floats(memory, method):
    target = Vwr2a().spm if memory == "spm" else BankedSram()
    width = target.line_words if method == "write_line" else 4

    def write(words):
        getattr(target, method)(0, (words * width)[:width])

    with pytest.raises(TypeError):
        write([1.5])
    write([INT32_MAX + 1, -2**40 - 1, True, -7])
    assert target.peek_words(0, 4) == [INT32_MIN, -1, 1, -7]
