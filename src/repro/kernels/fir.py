"""The FIR filter kernel (Sec. 4.4.1, Table 4).

Mapping strategy
----------------
A FIR is a stencil: output ``y[o]`` needs inputs ``x[o-T+1 .. o]``. Each RC
only reaches its own 32-word slice (Sec. 3.3.2), so the input is staged
into the SPM in an **overlapped layout**: every slice carries a
``T-1``-word halo before its 32 - (T-1) output positions. The overlap is
arranged for free by the word-granular DMA gather during stage-in
("careful data placement"), and the sparse outputs are compacted by the
DMA gather on the way out.

Inside a slice, each output is a ``T``-tap multiply-accumulate chain: the
MXCU walks the window (``k = o, o-1, ..., o-T+1``) while the RC alternates
``R1 = x[k] * h_j`` (tap coefficients are configuration-word immediates in
q15) and ``R0 += R1`` — two cycles per tap on the single-issue RC ALU.
"Our mapping uses two columns of the reconfigurable array that work on
different slices of the input array" (Sec. 4.4.1): the line range is split
across the columns, with per-column loop bounds in the SRF.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import DST_R0, DST_R1, DST_VWR_C, R0, R1, VWR_A, Vwr, imm
from repro.isa.lcu import addi, blt, seti
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.mxcu import MXCU_NOP, inck, setk
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import planner
from repro.kernels.runner import KernelRun, KernelRunner
from repro.utils.fixed_point import wrap32

SRF_X_ADDR = 0
SRF_Y_ADDR = 1
SRF_N_LINES = 2


@dataclass(frozen=True)
class FirLayout:
    """Overlapped SPM layout of one FIR invocation."""

    n_samples: int
    n_taps: int
    outputs_per_slice: int
    n_slices: int
    n_lines: int

    @property
    def halo(self) -> int:
        return self.n_taps - 1

    def gather_in_order(self, params: ArchParams) -> list:
        """SPM offset -> index into the zero-padded host input.

        The padded input is ``[0]*halo + x + [0]*tail``; slice ``g``
        position ``j`` holds padded[outputs_per_slice*g + j].
        """
        slice_words = params.slice_words
        order = []
        for line in range(self.n_lines):
            for s in range(params.rcs_per_column):
                g = line * params.rcs_per_column + s
                for j in range(slice_words):
                    order.append(self.outputs_per_slice * g + j)
        return order

    def gather_out_order(self, params: ArchParams) -> list:
        """Output index -> SPM offset of the (sparse) result word."""
        slice_words = params.slice_words
        order = []
        for i in range(self.n_samples):
            g, j = divmod(i, self.outputs_per_slice)
            line, s = divmod(g, params.rcs_per_column)
            order.append(
                line * params.line_words + s * slice_words + self.halo + j
            )
        return order

    def padded_input_words(self, params: ArchParams) -> int:
        return self.n_lines * params.line_words


def plan_fir(params: ArchParams, n_samples: int, n_taps: int) -> FirLayout:
    slice_words = params.slice_words
    outputs_per_slice = slice_words - (n_taps - 1)
    if outputs_per_slice <= 0:
        raise ConfigurationError(
            f"{n_taps} taps exceed the {slice_words}-word slice"
        )
    if outputs_per_slice % 2 != 0:
        # The two-bundle loop body needs an even output count; drop one
        # output per slice (slightly more halo) to keep it even.
        outputs_per_slice -= 1
    n_slices = -(-n_samples // outputs_per_slice)
    n_lines = -(-n_slices // params.rcs_per_column)
    return FirLayout(
        n_samples=n_samples,
        n_taps=n_taps,
        outputs_per_slice=outputs_per_slice,
        n_slices=n_slices,
        n_lines=n_lines,
    )


def _column_program(params, taps, x_line, y_line, n_lines):
    halo = len(taps) - 1
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_X_ADDR, x_line)
    kb.srf(SRF_Y_ADDR, y_line)
    kb.srf(SRF_N_LINES, n_lines)
    outputs = params.slice_words - halo
    if outputs % 2 != 0:
        outputs -= 1

    with kb.counted_loop(reg=1, count=("srf", SRF_N_LINES)):
        kb.emit(lsu=ld_vwr(Vwr.A, SRF_X_ADDR, inc=1))
        label = kb.fresh_label("fir")
        # k starts one below the first output position; the first MAC
        # bundle pre-increments it.
        kb.emit(lcu=seti(0, 0), mxcu=setk(halo - 1))
        kb.label(label)
        # Tap 0 seeds the accumulator at the output position.
        kb.emit(
            rcs=[rc(RCOp.FXPMUL, DST_R0, VWR_A, imm(taps[0]))]
                * params.rcs_per_column,
            mxcu=inck(1),
            lcu=addi(0, 1),
        )
        # Taps 1..T-1: multiply at k-j, then accumulate.
        for j in range(1, len(taps)):
            kb.emit(
                rcs=[rc(RCOp.FXPMUL, DST_R1, VWR_A, imm(taps[j]))]
                    * params.rcs_per_column,
                mxcu=inck(-1),
            )
            kb.emit(
                rcs=[rc(RCOp.SADD, DST_R0, R0, R1)] * params.rcs_per_column,
                mxcu=MXCU_NOP,
            )
        # Write-back at the output position; loop over the slice outputs.
        kb.emit(
            rcs=[rc(RCOp.MOV, DST_VWR_C, R0)] * params.rcs_per_column,
            mxcu=inck(halo),
            lcu=blt(0, outputs, label),
        )
        kb.emit(lsu=st_vwr(Vwr.C, SRF_Y_ADDR, inc=1))
    kb.exit()
    return kb.build()


@planner
def build_fir_kernel(
    params: ArchParams,
    taps,
    layout: FirLayout,
    x_line: int,
    y_line: int,
    name: str = None,
) -> KernelConfig:
    """Build the two-column FIR kernel over a staged layout (memoized;
    ``taps`` keys as a tuple)."""
    if len(taps) != layout.n_taps:
        raise ConfigurationError("taps do not match the layout")
    base = layout.n_lines // params.n_columns
    extra = layout.n_lines % params.n_columns
    columns = {}
    start = 0
    for col in range(params.n_columns):
        count = base + (1 if col < extra else 0)
        if count:
            columns[col] = _column_program(
                params, list(taps), x_line + start, y_line + start, count
            )
        start += count
    return KernelConfig(
        name=name or f"fir_{layout.n_samples}_{layout.n_taps}",
        columns=columns,
    )


@planner
def fir_gather_orders(layout: FirLayout, params: ArchParams,
                      n_padded: int) -> tuple:
    """``(order_in, order_out)`` DMA gathers of a staged layout (memoized).

    Halo reads past the ``n_padded``-word padded input (last slice) clamp
    to its final zero word.
    """
    order_in = tuple(
        min(i, n_padded - 1) for i in layout.gather_in_order(params)
    )
    return order_in, tuple(layout.gather_out_order(params))


@dataclass
class FirRun:
    """Result + cycle ledger of a staged FIR execution."""

    samples: list
    run: KernelRun


def run_fir(runner: KernelRunner, taps, samples, spm_x_line: int = 0,
            spm_y_line: int = None) -> FirRun:
    """Stage, execute and collect an 11-tap-style FIR on the SoC."""
    params = runner.soc.params
    layout = plan_fir(params, len(samples), len(taps))
    if spm_y_line is None:
        spm_y_line = spm_x_line + layout.n_lines
    if spm_y_line + layout.n_lines > params.spm_lines:
        raise ConfigurationError("FIR layout exceeds the SPM")

    padded = [0] * layout.halo + [int(s) for s in samples]
    padded += [0] * (
        layout.outputs_per_slice * layout.n_slices - len(samples)
        + layout.halo
    )
    order_in, order_out = fir_gather_orders(layout, params, len(padded))

    run = KernelRun(name=f"fir_{len(samples)}_{len(taps)}")
    run.dma_in_cycles = runner.stage_in(
        padded, spm_x_line * params.line_words, order=order_in
    )
    config = build_fir_kernel(params, taps, layout, spm_x_line, spm_y_line)
    run.add(runner.execute(config))
    values, run.dma_out_cycles = runner.stage_out(
        spm_y_line * params.line_words,
        len(samples),
        order=order_out,
    )
    return FirRun(samples=values, run=run)


def fir_fx_reference(samples, taps) -> list:
    """Golden model of the VWR2A FIR arithmetic: per-product 16.15
    truncation, wrap-around accumulation (matches the kernel bit-for-bit).
    """
    halo = len(taps) - 1
    padded = [0] * halo + [int(s) for s in samples]
    out = []
    for o in range(len(samples)):
        acc = 0
        base = o + halo
        for j, h in enumerate(taps):
            acc = wrap32(acc + wrap32((padded[base - j] * h) >> 15))
        out.append(acc)
    return out
