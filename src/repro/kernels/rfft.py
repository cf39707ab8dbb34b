"""The real-valued FFT kernel (Sec. 3.4, Table 2, Table 3 anchor).

"An optimized version is used for real-valued FFTs ... The sequence of N
real values is transformed into an N/2 complex sequence. Then, the complex
FFT kernel presented above is used. This technique reduces the
computations ... but requires some additional operations, also executed on
VWR2A, to recover the correct output."

Flow here:

1. **Pack**: even samples -> re, odd samples -> im of an N/2 complex
   sequence. Folded into the complex kernel's bit-reversed DMA gather —
   zero extra cycles.
2. **Complex N/2 FFT** (:class:`repro.kernels.fft.FftEngine`), result kept
   in the SPM.
3. **Mirror**: ``ZR[k] = Z[(N/2-k) mod N/2]`` materialized by an LSU
   scalar copy loop (LD.SRF/ST.SRF with +/-1 post-increments), the real
   and imaginary arrays split across the two columns. This is the
   conservative, documented-mechanisms-only answer to the mirrored access
   the recombination needs (DESIGN.md Sec. 5); it costs ~2 cycles/word and
   is the main reason our real-FFT overhead exceeds the paper's.
4. **Recombination** (two vector kernels per batch; their scratch lines
   go through the FFT batch kernel's walker,
   :meth:`~repro.kernels.macro.ColumnKernelBuilder.scratch`, and phase 2
   reuses its twiddle product)::

       G = (Z + conj(ZR))/2          H = (Z - conj(ZR))/(2i)
       X[k] = G[k] + W_N^k * H[k]

   with the ``W_N^k`` table resident in the SPM (uploaded at prepare).
   The k = 0 lane yields X[0] = Zre[0] + Zim[0] automatically; the single
   extra bin X[N/2] = Zre[0] - Zim[0] is patched by a scalar epilogue in
   the mirror kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import (
    DST_R0,
    DST_R1,
    DST_VWR_C,
    R0,
    R1,
    VWR_A,
    VWR_B,
    Vwr,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import addi, blt, seti
from repro.isa.lsu import ld_srf, ld_vwr, set_srf, st_srf, st_vwr
from repro.isa.mxcu import MXCU_NOP, inck
from repro.isa.rc import RCOp, rc
from repro.kernels.fft import (
    TWIDDLE_ONE,
    FftEngine,
    FftRun,
    cg_fft_reference_int,
    stage_table_lines,
    twiddle_products,
    twiddle_sums,
)
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import kernel_config, planner
from repro.kernels.runner import KernelRunner
from repro.utils.bits import clog2, is_power_of_two
from repro.utils.fixed_point import wrap32

# SRF allocation of the recombination kernels.
SRF_Z = 0        #: Z line address (re for phase 1 / by pass)
SRF_ZR = 1
SRF_Z2 = 2       #: Zim / second stream
SRF_ZR2 = 3
SRF_W = 4
SRF_XRE = 5
SRF_XIM = 6
SRF_SCRATCH = 7


def rfft_reference_int(samples):
    """Bit-exact golden model of the VWR2A real-FFT flow."""
    n = len(samples)
    if not is_power_of_two(n):
        raise ConfigurationError("need a power-of-two input")
    half = n // 2
    zre, zim = cg_fft_reference_int(
        [int(samples[2 * i]) for i in range(half)],
        [int(samples[2 * i + 1]) for i in range(half)],
    )
    out_re = [0] * (half + 1)
    out_im = [0] * (half + 1)
    for k in range(half):
        j = (half - k) % half
        gre = wrap32(zre[k] + zre[j]) >> 1
        gim = wrap32(zim[k] - zim[j]) >> 1
        hre = wrap32(zim[k] + zim[j]) >> 1
        him = wrap32(zre[j] - zre[k]) >> 1
        angle = -2.0 * math.pi * k / n
        wr = int(round(math.cos(angle) * TWIDDLE_ONE))
        wi = int(round(math.sin(angle) * TWIDDLE_ONE))
        p1 = wrap32((hre * wr) >> 15)
        p2 = wrap32((him * wi) >> 15)
        p3 = wrap32((hre * wi) >> 15)
        p4 = wrap32((him * wr) >> 15)
        out_re[k] = wrap32(gre + wrap32(p1 - p2))
        out_im[k] = wrap32(gim + wrap32(p3 + p4))
    out_re[half] = wrap32(zre[0] - zim[0])
    out_im[half] = 0
    return out_re, out_im


# ---------------------------------------------------------------------------
# Mirror kernel (scalar LSU copy, one array per column)
# ---------------------------------------------------------------------------

@planner
def _mirror_column_program(
    params: ArchParams,
    z_word: int,
    zr_word: int,
    half: int,
    patch=None,
):
    """ZR[k] = Z[(half-k) mod half] for one array (re or im).

    ``patch``: optionally (zre_word, zim_word, xnyq_word) — the column also
    computes X[N/2] = Zre[0] - Zim[0] into the SPM word ``xnyq_word``.
    """
    kb = ColumnKernelBuilder(params)
    kb.srf(0, z_word)           # ZR[0] = Z[0] source
    kb.srf(1, zr_word)
    kb.srf(2, z_word + half - 1)  # descending source for k = 1..half-1
    # k = 0 wrap-around case.
    kb.emit(lsu=ld_srf(3, 0))
    kb.emit(lsu=st_srf(3, 1, inc=1))
    # Main loop: 2 cycles per word.
    label = kb.fresh_label("mir")
    kb.emit(lcu=seti(0, 0))
    kb.b.label(label)
    kb.emit(lsu=ld_srf(3, 2, inc=-1), lcu=addi(0, 1))
    kb.emit(lsu=st_srf(3, 1, inc=1), lcu=blt(0, half - 1, label))
    if patch is not None:
        zre_word, zim_word, xnyq_word = patch
        kb.emit(lsu=set_srf(4, zre_word))
        kb.emit(lsu=ld_srf(3, 4))              # SRF3 = Zre[0]
        kb.emit(lsu=set_srf(4, zim_word))
        kb.emit(lsu=ld_srf(5, 4))              # SRF5 = Zim[0]
        kb.emit(rcs={0: rc(RCOp.MOV, DST_R0, srf(3))})
        kb.emit(rcs={0: rc(RCOp.MOV, DST_R1, srf(5))})
        kb.emit(rcs={0: rc(RCOp.SSUB, dst_srf(3), R0, R1)})
        kb.emit(lsu=set_srf(4, xnyq_word))
        kb.emit(lsu=st_srf(3, 4))
    kb.exit()
    return kb.build()


# ---------------------------------------------------------------------------
# Recombination kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecombAddresses:
    """Baked line addresses of one column's recombination batch."""

    zre: int
    zim: int
    zrre: int
    zrim: int
    w: int          #: W_N table line (wr of batch q, wi follows)
    xre: int
    xim: int
    scratch: int


def _halved(op: RCOp, a, b):
    """Two-bundle body of C = (a op b) >> 1."""
    return [
        (rc(op, DST_R0, a, b), inck(1)),
        (rc(RCOp.SRA, DST_VWR_C, R0, imm(1)), MXCU_NOP),
    ]


@planner
def _gh_column_program(params: ArchParams, addr: RecombAddresses):
    """Phase 1: G/H terms into scratch lines s0..s3."""
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_Z, addr.zre)
    kb.srf(SRF_ZR, addr.zrre)
    kb.srf(SRF_Z2, addr.zim)
    kb.srf(SRF_ZR2, addr.zrim)
    s = kb.scratch(SRF_SCRATCH, addr.scratch)
    # Group 1: A = Zre, B = ZRre -> Gre (s0), Him (s3).
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_Z))
    kb.emit(lsu=ld_vwr(Vwr.B, SRF_ZR))
    kb.multi_pass(_halved(RCOp.SADD, VWR_A, VWR_B))   # Gre = (A + B)/2
    s.st(Vwr.C, 0)
    kb.multi_pass(_halved(RCOp.SSUB, VWR_B, VWR_A))   # Him = (B - A)/2
    s.st(Vwr.C, 3)
    # Group 2: A = Zim, B = ZRim -> Gim (s1), Hre (s2).
    kb.emit(lsu=ld_vwr(Vwr.A, SRF_Z2))
    kb.emit(lsu=ld_vwr(Vwr.B, SRF_ZR2))
    kb.multi_pass(_halved(RCOp.SSUB, VWR_A, VWR_B))   # Gim = (A - B)/2
    s.st(Vwr.C, 1)
    kb.multi_pass(_halved(RCOp.SADD, VWR_A, VWR_B))   # Hre = (A + B)/2
    s.st(Vwr.C, 2)
    kb.exit()
    return kb.build()


@planner
def _xw_column_program(params: ArchParams, addr: RecombAddresses):
    """Phase 2: X = G + W*H from the scratch lines of phase 1."""
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_W, addr.w)
    kb.srf(SRF_XRE, addr.xre)
    kb.srf(SRF_XIM, addr.xim)
    s = kb.scratch(SRF_SCRATCH, addr.scratch)
    # T = W*H into s4 (re) / s5 (im), H = (Hre s2, Him s3).
    twiddle_products(kb, s, SRF_W)
    twiddle_sums(kb, s)
    # X = G + T.
    for g_line, t_line, x_entry in ((0, 4, SRF_XRE), (1, 5, SRF_XIM)):
        s.ld(Vwr.A, g_line)
        s.ld(Vwr.B, t_line)
        kb.vector_pass(rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B))
        kb.emit(lsu=st_vwr(Vwr.C, x_entry, inc=1))
    kb.exit()
    return kb.build()


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class RfftEngine:
    """Real-input FFT on top of the complex engine."""

    def __init__(self, runner: KernelRunner, n: int) -> None:
        if not is_power_of_two(n) or n < 4 * runner.soc.params.line_words:
            raise ConfigurationError(f"unsupported real-FFT size {n}")
        self.runner = runner
        self.params = runner.soc.params
        self.n = n
        self.half = n // 2
        self.cfft = FftEngine(runner, self.half)
        try:
            self._layout()
        except ConfigurationError:
            if not self.cfft.plan.resident_tables:
                raise
            # Tight SPM: streaming the inner FFT's stage tables frees the
            # lines the recombination layout needs. Only reached on
            # geometries where the resident layout cannot fit at all.
            self.cfft = FftEngine(runner, self.half, resident_tables=False)
            self._layout()
        self._w_sram = None
        self.prepare_cycles = 0
        self._prepared = False

    def _layout(self) -> None:
        plan = self.cfft.plan
        self.spec_lines = self.half // self.params.line_words  # Z lines
        # X overwrites Z in place (phase 2 only reads the scratch G/H
        # terms), so the free region only holds the W table, which streams
        # from SRAM when it does not fit, plus one line for the Nyquist
        # bins.
        self.xre_line, self.xim_line = plan.result_lines
        base = plan.scratch_line + 6 * self.params.n_columns
        self.nyq_line = base
        self.w_line = base + 1
        w_lines = 2 * max(self.spec_lines, 1)
        self.w_resident = self.w_line + w_lines <= self.params.spm_lines
        if not self.w_resident:
            w_lines = 2 * self.params.n_columns
            if self.w_line + w_lines > self.params.spm_lines:
                raise ConfigurationError(
                    f"real-FFT-{self.n} layout exceeds the SPM"
                )
        self.w_lines = w_lines

    def prepare(self) -> int:
        if self._prepared:
            return self.prepare_cycles
        cycles = self.cfft.prepare()
        # Recombination twiddle table: W_N^k, all distinct (the "last
        # stage" table of an N-point transform).
        words = stage_table_lines(self.params, self.n, clog2(self.n) - 1)
        if self.w_resident:
            cycles += self.runner.stage_in(
                words, self.w_line * self.params.line_words
            )
        else:
            self._w_sram = (self.runner.reserve_sram(words), len(words))
        self.prepare_cycles = cycles
        self._prepared = True
        return cycles

    def run(self, samples, collect: bool = True) -> FftRun:
        if len(samples) != self.n:
            raise ConfigurationError(
                f"expected {self.n} samples, got {len(samples)}"
            )
        self.prepare()
        params = self.params
        line_words = params.line_words
        half = self.half
        evens = [int(samples[2 * i]) for i in range(half)]
        odds = [int(samples[2 * i + 1]) for i in range(half)]
        inner = self.cfft.run(evens, odds, collect=False)
        run = inner.run
        run.name = f"rfft_{self.n}"
        plan = self.cfft.plan
        zr_line, zi_line = plan.result_lines
        # The other ping-pong buffer is dead after the FFT: mirror there.
        mr_line, mi_line = (
            (plan.xr_line, plan.xi_line)
            if (zr_line, zi_line) == (plan.yr_line, plan.yi_line)
            else (plan.yr_line, plan.yi_line)
        )
        xnyq_word = self.nyq_line * line_words

        mirror_program = _mirror_column_program
        re_args = (
            zr_line * line_words, mr_line * line_words, half,
            (zr_line * line_words, zi_line * line_words, xnyq_word),
        )
        im_args = (zi_line * line_words, mi_line * line_words, half)
        if params.n_columns >= 2:
            # The paper geometry: real and imaginary mirrors run on the
            # two columns concurrently (they touch disjoint arrays).
            mirror_configs = [kernel_config(
                f"rfft{self.n}_mirror", params,
                (0, mirror_program, re_args), (1, mirror_program, im_args),
            )]
        else:
            # Single-column geometry: the same two programs launch back
            # to back on column 0.
            mirror_configs = [
                kernel_config(f"rfft{self.n}_mirror_re", params,
                              (0, mirror_program, re_args)),
                kernel_config(f"rfft{self.n}_mirror_im", params,
                              (0, mirror_program, im_args)),
            ]
        for mirror in mirror_configs:
            result = self.runner.execute(
                mirror, max_cycles=10 * self.n + 1000
            )
            run.config_cycles += result.config_cycles
            run.compute_cycles += result.cycles

        n_cols = min(params.n_columns, max(self.spec_lines, 1))
        launches = max(-(-self.spec_lines // n_cols), 1)
        for launch in range(launches):
            if not self.w_resident:
                w_sram, w_words = self._w_sram
                lo = launch * n_cols * 2 * line_words
                hi = min(lo + n_cols * 2 * line_words, w_words)
                run.dma_in_cycles += self.runner.soc.dma_to_vwr2a(
                    w_sram + lo,
                    self.w_line * line_words,
                    hi - lo,
                )
            per_col = []
            for col in range(n_cols):
                q = launch * n_cols + col
                if q >= max(self.spec_lines, 1):
                    continue
                if self.w_resident:
                    w_line = self.w_line + 2 * q
                else:
                    w_line = self.w_line + 2 * col
                per_col.append((col, RecombAddresses(
                    zre=zr_line + q,
                    zim=zi_line + q,
                    zrre=mr_line + q,
                    zrim=mi_line + q,
                    w=w_line,
                    xre=self.xre_line + q,
                    xim=self.xim_line + q,
                    scratch=plan.scratch_line_of(col),
                )))
            for phase, builder in (("gh", _gh_column_program),
                                   ("xw", _xw_column_program)):
                config = kernel_config(
                    f"rfft{self.n}_{phase}_l{launch}", params,
                    *((col, builder, (addr,)) for col, addr in per_col),
                )
                result = self.runner.execute(config)
                run.config_cycles += result.config_cycles
                run.compute_cycles += result.cycles

        if collect:
            nyq_rel = (self.nyq_line - self.xre_line) * line_words
            out_re, c1 = self.runner.stage_out(
                self.xre_line * line_words, half + 1,
                order=list(range(half)) + [nyq_rel],
            )
            out_im, c2 = self.runner.stage_out(
                self.xim_line * line_words, half
            )
            out_im = list(out_im) + [0]
            run.dma_out_cycles += c1 + c2
        else:
            spm = self.runner.soc.vwr2a.spm
            out_re = spm.peek_words(self.xre_line * line_words, half)
            out_re = list(out_re) + [spm.peek_words(xnyq_word, 1)[0]]
            out_im = spm.peek_words(self.xim_line * line_words, half)
            out_im = list(out_im) + [0]
        return FftRun(re=out_re, im=out_im, run=run,
                       prepare_cycles=self.prepare_cycles + inner.prepare_cycles)
