"""The delineation kernel (MBioTracker step 2, Table 5).

"This step is a typical example of control-intensive code. The computation
load is low but there are a lot of if conditions used to detect the valid
minimums and maximums. General purpose CPUs are very inefficient at
executing such code, while VWR2A can take advantage of its more powerful
ILP capabilities." (Sec. 5.2.2.)

The mapping is an exact port of the hysteresis state machine of
:func:`repro.baselines.dsp.delineate` onto the specialized slots:

* the **LSU** streams samples from the SPM (LD.SRF with post-increment)
  and commits extrema positions (ST.SRF) — one memory op per cycle in
  parallel with control;
* the **LCU** holds the loop counter, the running extremum and the
  hysteresis comparisons — the state machine *is* its branch structure
  (one program region per state);
* **RC0/RC1** shadow the sample index and latch candidate extremum
  positions, committed through the SRF when a hysteresis band breaks.

The threshold is baked into the configuration words (a kernel parameter,
like the FFT addresses). Output arrays are terminated with a -1 sentinel.
Cycle cost is ~7-8 cycles per sample on the common path — an order of
magnitude below the M4's 90 cycles per sample, which is the paper's
delineation claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import DST_R0, DST_R1, R0, R1, dst_srf, imm
from repro.isa.lcu import addi, bge, blt, jump, ldsrf, seti
from repro.isa.lsu import ld_srf, set_srf, st_srf
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import planner
from repro.kernels.runner import KernelRun, KernelRunner

# SRF allocation.
SRF_X_ADDR = 0     #: sample read pointer (word address, post-inc)
SRF_MAX_ADDR = 1   #: maxima output pointer
SRF_MIN_ADDR = 2   #: minima output pointer
SRF_VALUE = 3      #: current sample (LSU -> LCU/RC handoff)
SRF_POS = 4        #: committed position (RC -> LSU handoff)

#: Sentinel terminating the output arrays.
SENTINEL = -1


@planner
def build_delineation_kernel(
    params: ArchParams,
    n_samples: int,
    threshold: int,
    x_word: int,
    max_word: int,
    min_word: int,
    name: str = "delineate",
) -> KernelConfig:
    """Single-column hysteresis scan with baked parameters."""
    if threshold <= 0:
        raise ConfigurationError("threshold must be positive")
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_X_ADDR, x_word)
    kb.srf(SRF_MAX_ADDR, max_word)
    kb.srf(SRF_MIN_ADDR, min_word)
    thr = threshold
    inc_i = [rc(RCOp.SADD, DST_R0, R0, imm(1)),
             rc(RCOp.SADD, DST_R0, R0, imm(1))]
    latch0 = rc(RCOp.MOV, DST_R1, R0)   # RC0: candidate position
    latch1 = rc(RCOp.MOV, DST_R1, R0)   # RC1: low candidate (state 0)

    # Prologue: read sample 0 into both running extrema; shadows at 0.
    kb.emit(lsu=ld_srf(SRF_VALUE, SRF_X_ADDR, inc=1), lcu=seti(0, 1))
    # Candidate positions (R1) must start at 0: if the very first sample
    # is the running extremum, the commit paths store R1 without any
    # latch ever firing — a stale value from the previous kernel would
    # leak into the output (and it varies with the SPM geometry).
    kb.emit(lcu=ldsrf(2, SRF_VALUE),
            rcs={0: rc(RCOp.MOV, DST_R1, imm(0)),
                 1: rc(RCOp.MOV, DST_R1, imm(0))})      # R2 = high
    kb.emit(lcu=ldsrf(3, SRF_VALUE),
            rcs={0: rc(RCOp.MOV, DST_R0, imm(0)),
                 1: rc(RCOp.MOV, DST_R0, imm(0))})      # R3 = low

    # ---- state 0: undecided ------------------------------------------------
    kb.label("s0")
    kb.emit(lcu=bge(0, n_samples, "done"))
    kb.emit(lsu=ld_srf(SRF_VALUE, SRF_X_ADDR, inc=1), lcu=addi(0, 1),
            rcs={0: inc_i[0], 1: inc_i[1]})
    kb.emit(lcu=ldsrf(1, SRF_VALUE))
    kb.emit(lcu=bge(1, ("reg", 2), "s0_new_high"))
    kb.emit(lcu=blt(1, ("reg", 3), "s0_new_low"))
    kb.label("s0_commits")
    kb.emit(lcu=addi(1, thr))                           # R1 = value + thr
    kb.emit(lcu=bge(2, ("reg", 1), "s0_commit_max"))    # high >= value+thr
    kb.emit(lcu=addi(1, -2 * thr))                      # R1 = value - thr
    kb.emit(lcu=bge(1, ("reg", 3), "s0_commit_min"))    # value-thr >= low
    kb.emit(lcu=jump("s0"))
    kb.label("s0_new_high")
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})
    kb.emit(lcu=jump("s0_commits"))
    kb.label("s0_new_low")
    kb.emit(lcu=ldsrf(3, SRF_VALUE), rcs={1: latch1})
    kb.emit(lcu=jump("s0_commits"))
    kb.label("s0_commit_max")
    kb.emit(rcs={0: rc(RCOp.MOV, dst_srf(SRF_POS), R1)})
    kb.emit(lsu=st_srf(SRF_POS, SRF_MAX_ADDR, inc=1))
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})   # best = value
    kb.emit(lcu=jump("track_min"))
    kb.label("s0_commit_min")
    kb.emit(rcs={1: rc(RCOp.MOV, dst_srf(SRF_POS), R1)})
    kb.emit(lsu=st_srf(SRF_POS, SRF_MIN_ADDR, inc=1))
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})
    kb.emit(lcu=jump("track_max"))

    # ---- tracking a maximum (best in R2, position shadow in RC0.R1) --------
    kb.label("track_max")
    kb.emit(lcu=bge(0, n_samples, "done"))
    kb.emit(lsu=ld_srf(SRF_VALUE, SRF_X_ADDR, inc=1), lcu=addi(0, 1),
            rcs={0: inc_i[0]})
    kb.emit(lcu=ldsrf(1, SRF_VALUE))
    kb.emit(lcu=addi(1, thr))
    kb.emit(lcu=bge(2, ("reg", 1), "commit_max"))       # best >= value+thr
    kb.emit(lcu=addi(1, -thr))
    kb.emit(lcu=bge(2, ("reg", 1), "track_max"))        # best >= value
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})   # new best
    kb.emit(lcu=jump("track_max"))
    kb.label("commit_max")
    kb.emit(rcs={0: rc(RCOp.MOV, dst_srf(SRF_POS), R1)})
    kb.emit(lsu=st_srf(SRF_POS, SRF_MAX_ADDR, inc=1))
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})
    kb.emit(lcu=jump("track_min"))

    # ---- tracking a minimum --------------------------------------------------
    kb.label("track_min")
    kb.emit(lcu=bge(0, n_samples, "done"))
    kb.emit(lsu=ld_srf(SRF_VALUE, SRF_X_ADDR, inc=1), lcu=addi(0, 1),
            rcs={0: inc_i[0]})
    kb.emit(lcu=ldsrf(1, SRF_VALUE))
    kb.emit(lcu=addi(1, -thr))
    kb.emit(lcu=bge(1, ("reg", 2), "commit_min"))       # value-thr >= best
    kb.emit(lcu=addi(1, thr))
    kb.emit(lcu=bge(1, ("reg", 2), "track_min"))        # value >= best: keep
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})   # value < best: update
    kb.emit(lcu=jump("track_min"))
    kb.label("commit_min")
    kb.emit(rcs={0: rc(RCOp.MOV, dst_srf(SRF_POS), R1)})
    kb.emit(lsu=st_srf(SRF_POS, SRF_MIN_ADDR, inc=1))
    kb.emit(lcu=ldsrf(2, SRF_VALUE), rcs={0: latch0})
    kb.emit(lcu=jump("track_max"))

    # ---- epilogue: sentinel terminators ----------------------------------------
    kb.label("done")
    kb.emit(lsu=set_srf(SRF_VALUE, SENTINEL))
    kb.emit(lsu=st_srf(SRF_VALUE, SRF_MAX_ADDR, inc=1))
    kb.emit(lsu=st_srf(SRF_VALUE, SRF_MIN_ADDR, inc=1))
    kb.exit()
    return KernelConfig(name=name, columns={0: kb.build()})


@dataclass
class DelineationRun:
    maxima: list
    minima: list
    run: KernelRun


def run_delineation(
    runner: KernelRunner,
    samples,
    threshold: int,
    x_word: int = 0,
    stage_input: bool = True,
    out_word: int = None,
) -> DelineationRun:
    """Stage, execute and collect a delineation scan.

    With ``stage_input=False`` the samples are assumed to already be in
    the SPM at ``x_word`` (the application keeps the filtered signal
    resident, Sec. 5.2.3). ``out_word`` places the extrema arrays.
    """
    params = runner.soc.params
    n = len(samples)
    if out_word is None:
        out_word = x_word + ((n + params.line_words - 1)
                             // params.line_words) * params.line_words
    max_word = out_word
    cap = n + 2
    min_word = max_word + cap
    run = KernelRun(name="delineate")
    if stage_input:
        run.dma_in_cycles = runner.stage_in(
            [int(s) for s in samples], x_word
        )
    config = build_delineation_kernel(
        params, n, threshold, x_word, max_word, min_word
    )
    run.add(runner.execute(config, max_cycles=40 * n + 2000))
    spm = runner.soc.vwr2a.spm

    def collect(base: int) -> list:
        values = []
        for offset in range(cap):
            word = spm.peek_words(base + offset, 1)[0]
            if word == SENTINEL:
                break
            values.append(word)
        return values

    maxima = collect(max_word)
    minima = collect(min_word)
    # The CPU reads back the (tiny) extrema arrays over the bus for its
    # high-level control of the following steps.
    readback = len(maxima) + len(minima) + 2
    run.dma_out_cycles = runner.soc.bus.burst_cycles(readback)
    runner.soc.run_cpu(run.dma_out_cycles)
    return DelineationRun(maxima=maxima, minima=minima, run=run)
