"""Feature-extraction and SVM kernels (MBioTracker steps 3-4, Table 5).

VWR2A executes the array work: breath-interval extraction (pairwise
differences of the delineation outputs), sum / sum-of-squares
accumulations for the mean and RMS features, the respiration-band power
over the resident FFT spectrum (Sec. 5.2.3 locality: the spectrum never
leaves the SPM), and the SVM decision-function MACs. All use a common
scalar-loop idiom on the specialized slots: the LSU streams operands
(LD.SRF), RC0 accumulates, the LCU drives the loop.

The tiny scalar epilogues over ~10-element arrays — the divides of the
means, the integer square root of the RMS, and the median selection — run
on the host CPU as part of its high-level control (charged with the
calibrated CMSIS cost model; < 2% of the step's cycles). DESIGN.md
records this boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.fields import DST_R0, R0, R1, DST_R1, dst_srf, imm, srf
from repro.isa.lcu import addi, blt, seti
from repro.isa.lsu import ld_srf, st_srf
from repro.isa.program import ColumnProgram
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import kernel_config, planner
from repro.kernels.runner import KernelRun, KernelRunner

SRF_A_ADDR = 0
SRF_B_ADDR = 1
SRF_OUT_ADDR = 2
SRF_VA = 3
SRF_VB = 4
SRF_ACC = 5


@planner
def _diff_column(params, a_word, b_word, out_word, count) -> ColumnProgram:
    """out[j] = a[j] - b[j], scalar (intervals from extrema positions)."""
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_A_ADDR, a_word)
    kb.srf(SRF_B_ADDR, b_word)
    kb.srf(SRF_OUT_ADDR, out_word)
    if count > 0:
        label = kb.fresh_label("diff")
        kb.emit(lcu=seti(0, 0))
        kb.b.label(label)
        kb.emit(lsu=ld_srf(SRF_VA, SRF_A_ADDR, inc=1), lcu=addi(0, 1))
        kb.emit(lsu=ld_srf(SRF_VB, SRF_B_ADDR, inc=1))
        kb.emit(rcs={0: rc(RCOp.MOV, DST_R0, srf(SRF_VA))})
        kb.emit(rcs={0: rc(RCOp.MOV, DST_R1, srf(SRF_VB))})
        kb.emit(rcs={0: rc(RCOp.SSUB, dst_srf(SRF_VA), R0, R1)})
        kb.emit(lsu=st_srf(SRF_VA, SRF_OUT_ADDR, inc=1),
                lcu=blt(0, count, label))
    kb.exit()
    return kb.build()


@planner
def _accumulate_column(
    params, a_word, count, out_word, squares: bool, b_word=None
) -> ColumnProgram:
    """Sum of a[j] (or a[j]^2, or a[j]*b[j]) into the SPM word ``out``.

    ``squares=True`` accumulates squares (RMS numerator); ``b_word`` makes
    it a dot product (band power with b = a, SVM with b = weights).
    """
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_A_ADDR, a_word)
    if b_word is not None:
        kb.srf(SRF_B_ADDR, b_word)
    kb.srf(SRF_OUT_ADDR, out_word)
    kb.emit(rcs={0: rc(RCOp.MOV, DST_R1, imm(0))})
    if count > 0:
        label = kb.fresh_label("acc")
        kb.emit(lcu=seti(0, 0))
        kb.b.label(label)
        kb.emit(lsu=ld_srf(SRF_VA, SRF_A_ADDR, inc=1), lcu=addi(0, 1))
        if b_word is not None:
            kb.emit(lsu=ld_srf(SRF_VB, SRF_B_ADDR, inc=1))
            kb.emit(rcs={0: rc(RCOp.MOV, DST_R0, srf(SRF_VA))})
            kb.emit(rcs={0: rc(RCOp.SMUL, DST_R0, R0, srf(SRF_VB))})
        elif squares:
            kb.emit(rcs={0: rc(RCOp.MOV, DST_R0, srf(SRF_VA))})
            kb.emit(rcs={0: rc(RCOp.SMUL, DST_R0, R0, R0)})
        else:
            kb.emit(rcs={0: rc(RCOp.MOV, DST_R0, srf(SRF_VA))})
        kb.emit(rcs={0: rc(RCOp.SADD, DST_R1, R1, R0)},
                lcu=blt(0, count, label))
    kb.emit(rcs={0: rc(RCOp.MOV, dst_srf(SRF_ACC), R1)})
    kb.emit(lsu=st_srf(SRF_ACC, SRF_OUT_ADDR))
    kb.exit()
    return kb.build()


@dataclass
class ScalarResult:
    value: int
    run: KernelRun


def run_intervals(runner: KernelRunner, insp_spec, exp_spec) -> KernelRun:
    """Two interval streams (inspiration on col0, expiration on col1).

    Each spec is ``(a_word, b_word, out_word, count)`` computing
    ``out[j] = spm[a + j] - spm[b + j]``.
    """
    params = runner.soc.params
    (a0, b0, o0, c0), (a1, b1, o1, c1) = insp_spec, exp_spec
    insp, exp = (a0, b0, o0, c0), (a1, b1, o1, c1)
    if params.n_columns >= 2:
        configs = [kernel_config(
            "intervals", params,
            (0, _diff_column, insp), (1, _diff_column, exp),
        )]
    else:
        # Single-column geometry: the two streams launch back to back.
        configs = [
            kernel_config("intervals_insp", params, (0, _diff_column, insp)),
            kernel_config("intervals_exp", params, (0, _diff_column, exp)),
        ]
    run = KernelRun(name="intervals")
    for config in configs:
        result = runner.execute(
            config, max_cycles=100 * max(c0, c1, 1) + 500
        )
        run.config_cycles += result.config_cycles
        run.compute_cycles += result.cycles
    return run


def run_accumulate(
    runner: KernelRunner,
    a_word: int,
    count: int,
    out_word: int,
    squares: bool = False,
    b_word=None,
) -> ScalarResult:
    """Run one accumulation kernel and read the scalar result back."""
    params = runner.soc.params
    config = kernel_config(
        f"acc_{a_word}_{count}_{int(squares)}", params,
        (0, _accumulate_column, (a_word, count, out_word, squares, b_word)),
    )
    run = KernelRun(name=config.name)
    result = runner.execute(config, max_cycles=40 * max(count, 1) + 500)
    run.config_cycles = result.config_cycles
    run.compute_cycles = result.cycles
    value = runner.soc.vwr2a.spm.peek_words(out_word, 1)[0]
    # CPU reads the scalar over the bus.
    cpu = runner.soc.bus.single_cycles()
    runner.soc.run_cpu(cpu)
    run.dma_out_cycles = cpu
    return ScalarResult(value=value, run=run)
