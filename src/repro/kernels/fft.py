"""The complex FFT kernel (Sec. 3.4, Tables 2/3, Fig. 2).

Algorithm
---------
Constant-geometry radix-2 decimation-in-time (Pease form): every stage
executes the identical flow — the paper's central observation ("All the
stages execute the same flow of operations; the only changes are the
coefficients and the data ordering"). Stage ``t`` of ``n = log2(N)``:

    a = x[2k]; b = x[2k+1]                       (k = 0 .. N/2-1)
    y[k]       = a + W * b
    y[k + N/2] = a - W * b,   W = W_N^((k >> (n-1-t)) << (n-1-t))

The input is consumed in bit-reversed order — arranged for free by the
word-granular DMA gather during stage-in — and the output leaves in
natural order, so no output reordering pass is needed. The *words
interleaving* / *pruning* shuffles are exactly the stage-to-stage data
reordering: each batch de-interleaves its two input lines into the ``a``
and ``b`` operand vectors with one ODD/EVEN-prune shuffle pair (the DIT
dual of the DIF interleave the paper describes).

Mapping
-------
One **batch kernel** covers 128 butterflies per column (one VWR), fully
unrolled over the per-stage addresses: the host launches
``stages x batches_per_column`` kernels, baking all line addresses into
the SRF init of each launch (the CPU reprograms kernel parameters between
launches, Sec. 4.2 — the "programming ... of the kernel parameters"
overhead the paper mentions). The launches of a transform size form one
schedule (:func:`stage_schedule`), built once per process, geometry and
table placement (:mod:`repro.kernels.memo`): every later transform, on
any engine of that size, replays it and re-stores the same objects.
Within a batch:

* products and combines are Table-1 two-bundle elementwise loops;
* the final butterflies are *fused* passes producing ``a + wb`` into VWR C
  and ``a - wb`` in place into VWR B in a two-cycle body;
* all scratch lines are walked by a single SRF address register whose
  post-increment chain is baked into the instructions (no extra cycles;
  :meth:`~repro.kernels.macro.ColumnKernelBuilder.scratch`).

Twiddles are 16.15 constants (1.0 = 32768 is exactly representable in the
32-bit datapath). Per-stage tables are materialized in the SPM: uploaded
once at :meth:`FftEngine.prepare` when they fit alongside the data
(N <= 512, the accelerator-ROM equivalent), or streamed per stage for
N = 1024. N = 2048 splits into two 1024-point transforms plus a combine
pass (the SPM cannot hold 2048-point ping-pong buffers and tables;
DESIGN.md records this substitution).

Driving the array
-----------------
This engine, :class:`~repro.kernels.rfft.RfftEngine` and
:class:`~repro.kernels.fft2048.SplitFftEngine` drive their launches
the same way (Sec. 4.2): :func:`column_batches` spreads a pass's
batches over the columns, one per column per launch; every twiddle
table is a :class:`TwiddleTable`, resident (staged once at ``prepare``)
or parked in reserved SRAM and streamed in, whole or one launch's slice
at a time; and one :class:`~repro.kernels.runner.KernelRun` ledger
charges the staging, every launch (``add``) and every sub-transform
(``merge``). The complex and split engines take their launches from a
schedule planner (:func:`stage_schedule`,
:func:`~repro.kernels.fft2048.combine_schedule`): each launch's
``(col, unit)`` batch and config, so a warm transform only streams its
tables and executes configs.

Data is q15-valued in 32-bit words; with 32-bit headroom no per-stage
scaling is needed up to N = 2048 and the kernel is bit-exact against
:func:`cg_fft_reference_int`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import (
    DST_VWR_B,
    DST_VWR_C,
    VWR_A,
    VWR_B,
    ShuffleMode,
    Vwr,
    imm,
)
from repro.isa.lsu import ld_vwr, shuf, st_vwr
from repro.isa.mxcu import MXCU_NOP, inck
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import planner
from repro.kernels.runner import KernelRun, KernelRunner
from repro.utils.bits import bit_reverse_indices, clog2, is_power_of_two
from repro.utils.fixed_point import wrap32

#: 16.15 twiddle scale: 1.0 == 1 << 15 (exactly representable in 32 bits).
TWIDDLE_ONE = 1 << 15

# SRF allocation of the batch kernel.
SRF_XR = 0      #: input re pair-line address (two post-inc uses per batch)
SRF_XI = 1      #: input im pair-line address
SRF_W = 2       #: stage-table line address (wr/wi interleaved by line)
SRF_YR_LO = 3
SRF_YR_HI = 4
SRF_YI_LO = 5
SRF_YI_HI = 6
SRF_SCRATCH = 7  #: scratch-line walker (post-increment chain)


@planner
def master_twiddles(n: int):
    """(re, im) 16.15 master table: W_N^k for k = 0 .. N/2-1 (tuples)."""
    angles = [-2.0 * math.pi * k / n for k in range(n // 2)]
    re = tuple(int(round(math.cos(a) * TWIDDLE_ONE)) for a in angles)
    im = tuple(int(round(math.sin(a) * TWIDDLE_ONE)) for a in angles)
    return re, im


def stage_exponents(n: int, t: int):
    """Master-table indices of stage ``t``'s table."""
    bits = clog2(n)
    shift = bits - 1 - t
    return [(k >> shift) << shift for k in range(n // 2)]


def stage_table(n: int, t: int):
    """Materialized (re, im) twiddle table of stage ``t`` (tuples)."""
    mre, mim = master_twiddles(n)
    idx = stage_exponents(n, t)
    return tuple(mre[i] for i in idx), tuple(mim[i] for i in idx)


@planner
def stage_table_lines(params: ArchParams, n: int, t: int):
    """Stage table in the line-interleaved SPM layout [wr_l, wi_l, ...]
    (a tuple, built once per geometry, size and stage)."""
    wr, wi = stage_table(n, t)
    line_words = params.line_words
    words = []
    for lo in range(0, len(wr), line_words):
        pad = (0,) * (line_words - len(wr[lo:lo + line_words]))
        words += wr[lo:lo + line_words] + pad
        words += wi[lo:lo + line_words] + pad
    return tuple(words)


# ---------------------------------------------------------------------------
# Golden model (bit-exact against the kernel's ALU semantics)
# ---------------------------------------------------------------------------

def _fxp(a: int, b: int) -> int:
    return wrap32((a * b) >> 15)


def cg_fft_reference_int(re, im):
    """Exact integer CG-DIT FFT matching the kernel bit-for-bit."""
    n = len(re)
    if n != len(im) or not is_power_of_two(n):
        raise ConfigurationError("need power-of-two complex input")
    bits = clog2(n)
    order = bit_reverse_indices(n)
    xr = [int(re[i]) for i in order]
    xi = [int(im[i]) for i in order]
    for t in range(bits):
        wr, wi = stage_table(n, t)
        yr = [0] * n
        yi = [0] * n
        half = n // 2
        for k in range(half):
            ar, ai = xr[2 * k], xi[2 * k]
            br, bi = xr[2 * k + 1], xi[2 * k + 1]
            p1 = _fxp(br, wr[k])
            p2 = _fxp(bi, wi[k])
            p3 = _fxp(br, wi[k])
            p4 = _fxp(bi, wr[k])
            wbr = wrap32(p1 - p2)
            wbi = wrap32(p3 + p4)
            yr[k] = wrap32(ar + wbr)
            yi[k] = wrap32(ai + wbi)
            yr[k + half] = wrap32(ar - wbr)
            yi[k + half] = wrap32(ai - wbi)
        xr, xi = yr, yi
    return xr, xi


# ---------------------------------------------------------------------------
# Batch kernel generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchAddresses:
    """Baked line addresses of one column's batch in one stage.

    Early stages (twiddle runs of >= one RC slice) carry their twiddles as
    per-RC configuration-word immediates in ``imm_twiddles`` — a list of
    ``(w_re, w_im)`` per RC — and leave ``w`` as None.
    """

    xr_pair: int     #: first of the two input re lines (2q, 2q+1)
    xi_pair: int
    yr_lo: int       #: output y[k] re line
    yr_hi: int       #: output y[k + N/2] re line
    yi_lo: int
    yi_hi: int
    scratch: int     #: first of six consecutive scratch lines
    w: int = None    #: stage-table line (wr of batch q); wi follows it
    imm_twiddles: tuple = None


def butterfly_pass(kb: ColumnKernelBuilder) -> None:
    """Fused butterflies: C = A + B and B <- A - B in place, two cycles
    per word position."""
    kb.multi_pass([
        (rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B), inck(1)),
        (rc(RCOp.SSUB, DST_VWR_B, VWR_A, VWR_B), MXCU_NOP),
    ])


def twiddle_products(kb: ColumnKernelBuilder, s, w_entry: int) -> None:
    """The four products of ``b * W``, W streamed as a (re, im) line pair
    through SRF ``w_entry`` (re stays resident in VWR B for p1/p4).

    Scratch lines (walker ``s``): s2 = b_re, s3 = b_im in; s4 = p1,
    s5 = p4, s2 = p3, s3 = p2 out.
    """
    mul = rc(RCOp.FXPMUL, DST_VWR_C, VWR_A, VWR_B)
    s.ld(Vwr.A, 2)                                  # A = br
    kb.emit(lsu=ld_vwr(Vwr.B, w_entry, inc=1))      # B = wr
    kb.vector_pass(mul)                             # C = br*wr
    s.st(Vwr.C, 4)                                  # s4 = p1
    s.ld(Vwr.A, 3)                                  # A = bi
    kb.vector_pass(mul)                             # C = bi*wr
    s.st(Vwr.C, 5)                                  # s5 = p4
    s.ld(Vwr.A, 2)                                  # A = br
    kb.emit(lsu=ld_vwr(Vwr.B, w_entry, inc=1))      # B = wi
    kb.vector_pass(mul)                             # C = br*wi
    s.st(Vwr.C, 2)                                  # s2 = p3 (br dead)
    s.ld(Vwr.A, 3)                                  # A = bi
    kb.vector_pass(mul)                             # C = bi*wi
    s.st(Vwr.C, 3)                                  # s3 = p2 (bi dead)


def twiddle_sums(kb: ColumnKernelBuilder, s) -> None:
    """``wb = b * W`` from the products: s4 = p1 - p2, s5 = p3 + p4."""
    s.ld(Vwr.A, 4)                                  # A = p1
    s.ld(Vwr.B, 3)                                  # B = p2
    kb.vector_pass(rc(RCOp.SSUB, DST_VWR_C, VWR_A, VWR_B))
    s.st(Vwr.C, 4)                                  # s4 = wbr
    s.ld(Vwr.A, 2)                                  # A = p3
    s.ld(Vwr.B, 5)                                  # B = p4
    kb.vector_pass(rc(RCOp.SADD, DST_VWR_C, VWR_A, VWR_B))
    s.st(Vwr.C, 5)                                  # s5 = wbi


def _batch_column_program(params: ArchParams, addr: BatchAddresses):
    """The straight-line batch body for one column."""
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_XR, addr.xr_pair)
    kb.srf(SRF_XI, addr.xi_pair)
    if addr.w is not None:
        kb.srf(SRF_W, addr.w)
    kb.srf(SRF_YR_LO, addr.yr_lo)
    kb.srf(SRF_YR_HI, addr.yr_hi)
    kb.srf(SRF_YI_LO, addr.yi_lo)
    kb.srf(SRF_YI_HI, addr.yi_hi)

    # Scratch plan: s0=ar s1=ai s2=br/p3 s3=bi/p2 s4=p1/wbr s5=p4/wbi.
    s = kb.scratch(SRF_SCRATCH, addr.scratch)

    # -- de-interleave: x pairs -> a (evens) and b (odds) -------------------
    for entry, a_line, b_line in ((SRF_XR, 0, 2), (SRF_XI, 1, 3)):
        kb.emit(lsu=ld_vwr(Vwr.A, entry, inc=1))
        kb.emit(lsu=ld_vwr(Vwr.B, entry, inc=1))
        kb.emit(lsu=shuf(ShuffleMode.ODD_PRUNE))    # keeps even indices
        s.st(Vwr.C, a_line)                         # s0/s1 = a
        kb.emit(lsu=shuf(ShuffleMode.EVEN_PRUNE))   # keeps odd indices
        s.st(Vwr.C, b_line)                         # s2/s3 = b

    # -- twiddle products -----------------------------------------------------
    if addr.imm_twiddles is None:
        twiddle_products(kb, s, SRF_W)
    else:
        # Immediate twiddles: one (w_re, w_im) per RC slice, baked into
        # the configuration words — no table loads at all.
        mul_wr = [rc(RCOp.FXPMUL, DST_VWR_C, VWR_A, imm(w[0]))
                  for w in addr.imm_twiddles]
        mul_wi = [rc(RCOp.FXPMUL, DST_VWR_C, VWR_A, imm(w[1]))
                  for w in addr.imm_twiddles]
        s.ld(Vwr.A, 2)                              # A = br
        kb.vector_pass(mul_wr)                      # C = br*wr
        s.st(Vwr.C, 4)                              # s4 = p1
        kb.vector_pass(mul_wi)                      # C = br*wi
        s.st(Vwr.C, 2)                              # s2 = p3 (br dead)
        s.ld(Vwr.A, 3)                              # A = bi
        kb.vector_pass(mul_wr)                      # C = bi*wr
        s.st(Vwr.C, 5)                              # s5 = p4
        kb.vector_pass(mul_wi)                      # C = bi*wi
        s.st(Vwr.C, 3)                              # s3 = p2 (bi dead)
    twiddle_sums(kb, s)

    # -- fused butterflies: C = a + wb ; B <- a - wb (in place) -------------
    for a_line, wb_line, lo, hi in ((0, 4, SRF_YR_LO, SRF_YR_HI),
                                    (1, 5, SRF_YI_LO, SRF_YI_HI)):
        s.ld(Vwr.A, a_line)                         # A = ar / ai
        s.ld(Vwr.B, wb_line)                        # B = wbr / wbi
        butterfly_pass(kb)
        kb.emit(lsu=st_vwr(Vwr.C, lo, inc=1))
        kb.emit(lsu=st_vwr(Vwr.B, hi, inc=1))
    kb.exit()
    return kb.build()


@planner
def build_batch_kernel(
    params: ArchParams, per_column, name: str
) -> KernelConfig:
    """One launch: each listed column runs one batch with baked addresses.

    ``per_column`` maps column -> :class:`BatchAddresses` (a dict, or its
    tuple of items).
    """
    columns = {
        col: _batch_column_program(params, addr)
        for col, addr in per_column
    }
    return KernelConfig(name=name, columns=columns)


# ---------------------------------------------------------------------------
# Plan + engine
# ---------------------------------------------------------------------------

@dataclass
class FftPlan:
    """SPM layout and launch schedule of one FFT size."""

    n: int
    params: ArchParams
    x_line: int = 0        #: ping buffer: xr | xi (data_lines each)
    resident_tables: bool = True

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n) or self.n < 2 * self.params.line_words:
            raise ConfigurationError(
                f"FFT size {self.n} unsupported (needs >= "
                f"{2 * self.params.line_words} points)"
            )
        self.stages = clog2(self.n)
        self.data_lines = self.n // self.params.line_words
        self.batches = self.n // 2 // self.params.line_words
        # Stages whose twiddle runs cover at least one RC slice carry their
        # twiddles as per-RC immediates; only the remaining "vector" stages
        # need materialized tables.
        slice_bits = clog2(self.params.slice_words)
        self.vector_stages = [
            t for t in range(self.stages)
            if (self.stages - 1 - t) < slice_bits
        ]
        # Layout: xr xi | yr yi | tables
        self.xr_line = self.x_line
        self.xi_line = self.xr_line + self.data_lines
        self.yr_line = self.xi_line + self.data_lines
        self.yi_line = self.yr_line + self.data_lines
        self.table_line = self.yi_line + self.data_lines
        self.table_lines_per_stage = 2 * max(self.batches, 1)
        scratch_lines = 6 * self.params.n_columns
        if self.resident_tables:
            total = (
                self.table_line
                + len(self.vector_stages) * self.table_lines_per_stage
                + scratch_lines
            )
        else:
            total = self.table_line + self.table_lines_per_stage \
                + scratch_lines
        if total > self.params.spm_lines:
            # Advise only what can still shrink the layout.
            advice = ["resident_tables=False"] if self.resident_tables \
                else []
            if self.n == 16 * self.params.line_words:
                advice.append("the split-transform path")
            hint = f"use {' or '.join(advice)}" if advice \
                else "this size needs a larger SPM"
            raise ConfigurationError(
                f"FFT-{self.n} layout needs {total} SPM lines, have "
                f"{self.params.spm_lines}; {hint}"
            )
        self.scratch_line = total - scratch_lines

    def scratch_line_of(self, col: int) -> int:
        """Each column owns six private scratch lines."""
        return self.scratch_line + 6 * col

    def table_line_of_stage(self, t: int) -> int:
        """First SPM line of vector stage ``t``'s table."""
        if self.resident_tables:
            index = self.vector_stages.index(t)
            return self.table_line + index * self.table_lines_per_stage
        return self.table_line

    def imm_twiddles_for(self, t: int, q: int) -> tuple:
        """Per-RC (w_re, w_im) immediates of batch ``q`` in stage ``t``."""
        mre, mim = master_twiddles(self.n)
        shift = self.stages - 1 - t
        slice_words = self.params.slice_words
        imms = []
        for rc_index in range(self.params.rcs_per_column):
            k = q * self.params.line_words + rc_index * slice_words
            index = (k >> shift) << shift
            imms.append((mre[index], mim[index]))
        return tuple(imms)

    def buffers_for_stage(self, t: int):
        """(src_re, src_im, dst_re, dst_im) line bases for stage ``t``."""
        if t % 2 == 0:
            return self.xr_line, self.xi_line, self.yr_line, self.yi_line
        return self.yr_line, self.yi_line, self.xr_line, self.xi_line

    @property
    def result_lines(self):
        """(re, im) line bases holding the final spectrum."""
        if self.stages % 2 == 1:
            return self.yr_line, self.yi_line
        return self.xr_line, self.xi_line


@dataclass
class FftRun:
    """Spectrum + cycle ledger of one staged FFT execution (complex,
    real — N/2 + 1 bins — or split)."""

    re: list
    im: list
    run: KernelRun
    #: SRAM words where a collected spectrum's re / im halves sit.
    sram: tuple = None


def require_points(n: int, re, im) -> None:
    """Reject a complex input that is not ``n`` points in both halves."""
    if len(re) != n or len(im) != n:
        raise ConfigurationError(
            f"expected {n} complex points, got {len(re)} re and "
            f"{len(im)} im"
        )


def column_batches(units: int, n_columns: int) -> list:
    """The ``(col, unit)`` pairs of each launch: ``units`` batches spread
    over the columns, one per column per launch (Sec. 3.4)."""
    n_cols = min(n_columns, units)
    return [
        list(enumerate(range(first, min(first + n_cols, units))))
        for first in range(0, units, n_cols)
    ]


class TwiddleTable:
    """Where one twiddle table lives: stage ``stage``'s table of an
    ``n``-point transform (:func:`stage_table_lines`), given the ``lines``
    SPM lines from ``line`` to sit in.

    Unit (batch) ``q`` of a transform reads the table's lines ``2q`` (re)
    and ``2q + 1`` (im). A resident table is staged into its lines once,
    at the first :meth:`prepare` (the accelerator-ROM equivalent), and
    read in place. Otherwise :meth:`prepare` parks it in reserved SRAM
    (:meth:`KernelRunner.reserve_sram`) and :meth:`stream` DMAs it in
    before use: whole when it fits its lines, else one launch's units at
    a time, column ``col``'s unit at ``line + 2 * col``.
    """

    def __init__(self, runner: KernelRunner, n: int, stage: int,
                 line: int, lines: int, resident: bool) -> None:
        self.runner = runner
        self.n = n
        self.stage = stage
        self.line = line
        self.lines = lines
        self.resident = resident
        self.line_words = runner.soc.params.line_words
        table_lines = 2 * -(-(n // 2) // self.line_words)
        self.chunked = not resident and lines < table_lines
        self.n_words = table_lines * self.line_words
        #: SRAM word of a parked table.
        self.sram = None
        self._cycles = None

    def prepare(self) -> int:
        """Stage or park the table, once; returns the staging DMA cycles
        (0 for a parked table)."""
        if self._cycles is None:
            words = stage_table_lines(
                self.runner.soc.params, self.n, self.stage
            )
            if self.resident:
                self._cycles = self.runner.stage_in(
                    words, self.line * self.line_words
                )
            else:
                self.sram = self.runner.reserve_sram(words)
                self._cycles = 0
        return self._cycles

    def stream(self, batch=None) -> int:
        """DMA a parked table into its lines before a launch — whole, or
        for a chunked table the units of ``batch`` (one launch's
        ``(col, unit)`` pairs); returns the DMA cycles (0 if resident)."""
        if self.resident:
            return 0
        lo, hi = 0, self.n_words
        if self.chunked:
            lo = 2 * batch[0][1] * self.line_words
            hi = 2 * (batch[-1][1] + 1) * self.line_words
        return self.runner.soc.dma_to_vwr2a(
            self.sram + lo, self.line * self.line_words, hi - lo
        )

    def line_of(self, col: int, q: int) -> int:
        """SPM line of unit ``q``'s re half when column ``col`` runs it."""
        return self.line + 2 * (col if self.chunked else q)


def fft_plan(params: ArchParams, n: int,
             resident_tables: bool = None) -> FftPlan:
    """The plan of an ``n``-point transform. With ``resident_tables``
    left out, the vector-stage tables stay resident beside the double
    buffer when the layout fits (up to 512 points with the default
    32 KiB SPM); larger sizes stream them from SRAM before each stage."""
    if resident_tables is not None:
        return FftPlan(n=n, params=params, resident_tables=resident_tables)
    try:
        return FftPlan(n=n, params=params)
    except ConfigurationError:
        return FftPlan(n=n, params=params, resident_tables=False)


@planner
def stage_schedule(params: ArchParams, n: int,
                   resident_tables: bool) -> tuple:
    """Every launch of an ``n``-point transform, built once per geometry,
    size and table placement, so each engine of that size replays the
    same objects: per stage, one ``(batch, config)`` per launch, the
    launch's ``(col, unit)`` pairs (:func:`column_batches`) and its
    batch kernel (:func:`build_batch_kernel`)."""
    plan = FftPlan(n=n, params=params, resident_tables=resident_tables)
    launches = column_batches(plan.batches, params.n_columns)
    schedule = []
    for t in range(plan.stages):
        src_r, src_i, dst_r, dst_i = plan.buffers_for_stage(t)
        # A stage table fills its lines, so unit q reads lines 2q and
        # 2q + 1 (TwiddleTable.line_of); the other stages bake theirs.
        table = plan.table_line_of_stage(t) \
            if t in plan.vector_stages else None
        stage = []
        for launch, batch in enumerate(launches):
            per_column = {
                col: BatchAddresses(
                    xr_pair=src_r + 2 * q,
                    xi_pair=src_i + 2 * q,
                    w=None if table is None else table + 2 * q,
                    imm_twiddles=(
                        plan.imm_twiddles_for(t, q) if table is None
                        else None
                    ),
                    yr_lo=dst_r + q,
                    yr_hi=dst_r + plan.batches + q,
                    yi_lo=dst_i + q,
                    yi_hi=dst_i + plan.batches + q,
                    scratch=plan.scratch_line_of(col),
                )
                for col, q in batch
            }
            stage.append((batch, build_batch_kernel(
                params, per_column, name=f"cfft{n}_s{t}_l{launch}",
            )))
        schedule.append(tuple(stage))
    return tuple(schedule)


class FftEngine:
    """Orchestrates complex FFTs of one size on a runner.

    Its launches come from :func:`stage_schedule`, built once per
    geometry, size and table placement; a transform stages its input,
    streams each stage's :class:`TwiddleTable` when it is not resident,
    and launches the stage's configs in turn. One :class:`KernelRun`
    ledger charges the staging, every launch and the stage-out.
    """

    def __init__(self, runner: KernelRunner, n: int,
                 resident_tables: bool = None) -> None:
        self.runner = runner
        self.params = runner.soc.params
        self.plan = plan = fft_plan(self.params, n, resident_tables)
        #: Stage -> table of the vector stages.
        self.tables = {
            t: TwiddleTable(runner, n, t, plan.table_line_of_stage(t),
                            plan.table_lines_per_stage,
                            plan.resident_tables)
            for t in plan.vector_stages
        }

    # -- one-time setup (accelerator-ROM equivalent) -------------------------

    def prepare(self) -> int:
        """Upload the stage tables (resident) or park them in reserved
        SRAM, once; returns the upload DMA cycles."""
        return sum(table.prepare() for table in self.tables.values())

    # -- execution --------------------------------------------------------------

    def run(self, re, im, collect: bool = True) -> FftRun:
        """Execute one transform.

        With ``collect=False`` the spectrum stays in the SPM (the paper's
        application-level locality: "the FFT ... keeps the results inside
        the SPM", Sec. 5.2.3) and ``FftRun.re/im`` are peeked for callers.
        """
        plan = self.plan
        require_points(plan.n, re, im)
        self.prepare()
        params = self.params
        runner = self.runner
        order = bit_reverse_indices(plan.n)
        run = KernelRun(name=f"cfft_{plan.n}")
        run.dma_in_cycles += runner.stage_in(
            list(map(int, re)), plan.xr_line * params.line_words,
            order=order,
        )
        run.dma_in_cycles += runner.stage_in(
            list(map(int, im)), plan.xi_line * params.line_words,
            order=order,
        )
        schedule = stage_schedule(params, plan.n, plan.resident_tables)
        for t, stage in enumerate(schedule):
            table = self.tables.get(t)
            if table is not None:
                run.dma_in_cycles += table.stream()
            for _, config in stage:
                run.add(runner.execute(config))
        words = [line * params.line_words for line in plan.result_lines]
        memory = runner.soc.vwr2a.spm
        sram = None
        if collect:
            staged = [runner.stage_out_sram(word, plan.n) for word in words]
            words = sram = tuple(word for word, _ in staged)
            memory = runner.soc.sram
            run.dma_out_cycles = sum(cycles for _, cycles in staged)
        return FftRun(re=memory.peek_words(words[0], plan.n),
                      im=memory.peek_words(words[1], plan.n), run=run,
                      sram=sram)
