"""2048-point complex FFT via split transforms (Table 2, largest size).

A 2048-point ping-pong CG-FFT needs 4 x 2048 words of data buffer alone —
the whole 32 KiB SPM — so the transform is decomposed (classic
Cooley-Tukey radix-2 DIT split)::

    E = FFT_1024(x[0::2])        O = FFT_1024(x[1::2])
    X[k]        = E[k] + W_2048^k * O[k]
    X[k + 1024] = E[k] - W_2048^k * O[k]

The two half-size transforms run back-to-back on the array (E staged out
to system SRAM while O computes, then staged back); the combine pass is a
batch kernel with the same fused-butterfly structure as an FFT stage,
writing X in place over E and O. ``W_2048^k`` does not fit beside them:
it is a :class:`~repro.kernels.fft.TwiddleTable` parked in SRAM, each
combine launch streaming in its slice. The extra DMA staging is the
price of the SPM capacity and is included in the reported cycles
(DESIGN.md records this substitution).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import DST_VWR_C, VWR_A, VWR_B, Vwr
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.rc import RCOp, rc
from repro.kernels.fft import (
    FftEngine,
    FftRun,
    TwiddleTable,
    butterfly_pass,
    cg_fft_reference_int,
    column_batches,
    fft_plan,
    master_twiddles,
    require_points,
)
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import kernel_config, planner
from repro.kernels.runner import KernelRun, KernelRunner
from repro.utils.bits import clog2
from repro.utils.fixed_point import wrap32

SRF_ER = 0
SRF_EI = 1
SRF_OR = 2
SRF_OI = 3
SRF_W = 4
SRF_SCRATCH = 7


def split_fft_reference_int(re, im):
    """Bit-exact golden model of the split 2048-point flow."""
    n = len(re)
    half = n // 2
    er, ei = cg_fft_reference_int(re[0::2], im[0::2])
    orr, oi = cg_fft_reference_int(re[1::2], im[1::2])
    mre, mim = master_twiddles(n)
    xr = [0] * n
    xi = [0] * n
    for k in range(half):
        p1 = wrap32((orr[k] * mre[k]) >> 15)
        p2 = wrap32((oi[k] * mim[k]) >> 15)
        p3 = wrap32((orr[k] * mim[k]) >> 15)
        p4 = wrap32((oi[k] * mre[k]) >> 15)
        wbr = wrap32(p1 - p2)
        wbi = wrap32(p3 + p4)
        xr[k] = wrap32(er[k] + wbr)
        xi[k] = wrap32(ei[k] + wbi)
        xr[k + half] = wrap32(er[k] - wbr)
        xi[k + half] = wrap32(ei[k] - wbi)
    return xr, xi


@dataclass(frozen=True)
class CombineAddresses:
    er: int
    ei: int
    o_r: int
    o_i: int
    w: int
    scratch: int


@planner
def _combine_column_program(params: ArchParams, addr: CombineAddresses):
    """X[k] / X[k+half] butterflies, in place over the E and O lines."""
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_ER, addr.er)
    kb.srf(SRF_EI, addr.ei)
    kb.srf(SRF_OR, addr.o_r)
    kb.srf(SRF_OI, addr.o_i)
    kb.srf(SRF_W, addr.w)
    s = kb.scratch(SRF_SCRATCH, addr.scratch)
    mul = rc(RCOp.FXPMUL, DST_VWR_C, VWR_A, VWR_B)
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_OR))
    kb.emit(lsu=ld_vwr(Vwr.B, SRF_W, inc=1))       # B = Wre
    kb.vector_pass(mul)
    s.st(Vwr.C, 0)                                  # s0 = P1 = Or*Wr
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_OI))
    kb.vector_pass(mul)
    s.st(Vwr.C, 1)                                  # s1 = P4 = Oi*Wr
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_OR))
    kb.emit(lsu=ld_vwr(Vwr.B, SRF_W, inc=1))       # B = Wim
    kb.vector_pass(mul)
    s.st(Vwr.C, 2)                                  # s2 = P3 = Or*Wi
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_OI))
    kb.vector_pass(mul)
    s.st(Vwr.C, 3)                                  # s3 = P2 = Oi*Wi
    s.ld(Vwr.A, 0)
    s.ld(Vwr.B, 3)
    kb.vector_pass(rc(RCOp.SSUB, DST_VWR_C, VWR_A, VWR_B))
    s.st(Vwr.C, 0)                                  # s0 = wbr
    s.ld(Vwr.A, 2)
    s.ld(Vwr.B, 1)
    kb.vector_pass(rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B))
    s.st(Vwr.C, 1)                                  # s1 = wbi
    for e_entry, wb_line, o_entry in ((SRF_ER, 0, SRF_OR),
                                      (SRF_EI, 1, SRF_OI)):
        kb.emit(lsu=ld_vwr(Vwr.A, e_entry))
        s.ld(Vwr.B, wb_line)
        butterfly_pass(kb)
        kb.emit(lsu=st_vwr(Vwr.C, e_entry, inc=1))  # X[k] over E
        kb.emit(lsu=st_vwr(Vwr.B, o_entry, inc=1))  # X[k+half] over O
    kb.exit()
    return kb.build()


def combine_lines(plan) -> tuple:
    """``(er, ei, or, oi)``: the combine's lines over the half transforms'
    plan. O stays where the second transform finished; E returns into
    the dead ping-pong buffer."""
    o_lines = plan.result_lines
    if o_lines == (plan.xr_line, plan.xi_line):
        return (plan.yr_line, plan.yi_line) + o_lines
    return (plan.xr_line, plan.xi_line) + o_lines


@planner
def combine_schedule(params: ArchParams, n: int) -> tuple:
    """Every combine launch of the split ``n``-point transform, built once
    per geometry and size: one ``(batch, config)`` per launch, as
    :func:`~repro.kernels.fft.stage_schedule` gives a stage's."""
    plan = fft_plan(params, n // 2)
    er, ei, o_r, o_i = combine_lines(plan)
    schedule = []
    for launch, batch in enumerate(column_batches(
            n // 2 // params.line_words, params.n_columns)):
        # The table streams one launch's units in: column col's unit
        # reads lines 2 col and 2 col + 1 (TwiddleTable.line_of).
        columns = [(col, _combine_column_program, (CombineAddresses(
            er=er + q, ei=ei + q, o_r=o_r + q, o_i=o_i + q,
            w=plan.table_line + 2 * col,
            scratch=plan.scratch_line_of(col),
        ),)) for col, q in batch]
        schedule.append((batch, kernel_config(
            f"cfft{n}_comb_l{launch}", params, *columns
        )))
    return tuple(schedule)


class SplitFftEngine:
    """2048-point complex FFT as two 1024-point transforms + combine.

    Both half transforms' ledgers are merged into this one; the combine
    replays its launch schedule (:func:`combine_schedule`), each launch
    streaming its slice of ``W_2048^k`` from a
    :class:`~repro.kernels.fft.TwiddleTable` parked in SRAM.
    """

    def __init__(self, runner: KernelRunner, n: int = 2048) -> None:
        params = runner.soc.params
        if n != 16 * params.line_words:
            raise ConfigurationError(
                f"the split engine handles N = {16 * params.line_words}, "
                f"got {n}"
            )
        self.runner = runner
        self.params = params
        self.n = n
        self.half = n // 2
        self.sub = FftEngine(runner, self.half)
        # Combine layout reuses the sub-FFT buffers (combine_lines); W
        # streams into the table region.
        plan = self.sub.plan
        self.er_line, self.ei_line, self.or_line, self.oi_line = \
            combine_lines(plan)
        w_lines = 2 * params.n_columns
        if max(plan.table_line + w_lines,
               plan.scratch_line + 6 * params.n_columns) \
                > params.spm_lines:
            raise ConfigurationError("combine layout exceeds the SPM")
        self.w = TwiddleTable(runner, n, clog2(n) - 1, plan.table_line,
                              w_lines, resident=False)

    def prepare(self) -> int:
        """Prepare the half transforms and park the combine table, once;
        returns the upload DMA cycles."""
        return self.sub.prepare() + self.w.prepare()

    def run(self, re, im) -> FftRun:
        require_points(self.n, re, im)
        self.prepare()
        params = self.params
        line_words = params.line_words
        # Half transforms: E staged out to SRAM while O computes.
        e_run = self.sub.run(re[0::2], im[0::2], collect=True)
        o_run = self.sub.run(re[1::2], im[1::2], collect=False)
        run = KernelRun(name=f"cfft_split_{self.n}")
        run.merge(e_run.run)
        run.merge(o_run.run)

        # O is already in place (the second transform's result buffer);
        # DMA E back from where its stage-out left it in SRAM into the
        # dead ping-pong buffer.
        for sram_word, line in zip(e_run.sram, (self.er_line, self.ei_line)):
            run.dma_in_cycles += self.runner.soc.dma_to_vwr2a(
                sram_word, line * line_words, self.half
            )

        for batch, config in combine_schedule(params, self.n):
            run.dma_in_cycles += self.w.stream(batch)
            run.add(self.runner.execute(config))

        out_re, c1 = self.runner.stage_out(
            self.er_line * line_words, self.half
        )
        out_re2, c2 = self.runner.stage_out(
            self.or_line * line_words, self.half
        )
        out_im, c3 = self.runner.stage_out(
            self.ei_line * line_words, self.half
        )
        out_im2, c4 = self.runner.stage_out(
            self.oi_line * line_words, self.half
        )
        run.dma_out_cycles += c1 + c2 + c3 + c4
        return FftRun(
            re=list(out_re) + list(out_re2),
            im=list(out_im) + list(out_im2),
            run=run,
        )
