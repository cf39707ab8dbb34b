"""Elementwise vector kernels.

The simplest complete VWR2A mappings — ``z[i] = x[i] op y[i]`` and
``z[i] = x[i] op scalar`` — used by the quickstart example, as the
reference for the Table-1 instruction-flow shape, and as the base case of
the kernel test suite. Both columns split the data; each line is streamed
SPM -> VWRs -> SPM with the Table-1 two-bundle loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import ArchParams
from repro.core.errors import ConfigurationError
from repro.isa.fields import DST_VWR_C, VWR_A, VWR_B, Vwr, srf
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.program import ColumnProgram, KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.memo import planner

#: SRF register allocation of the vector kernels.
SRF_A_ADDR = 0
SRF_B_ADDR = 1
SRF_C_ADDR = 2
SRF_SCALAR = 3


@dataclass(frozen=True)
class VectorPlan:
    """Line-level split of an elementwise kernel across columns."""

    n_words: int
    n_lines: int
    lines_per_column: dict


def plan_split(params: ArchParams, n_words: int) -> VectorPlan:
    """Divide ``n_words`` (whole lines) across the columns."""
    line_words = params.line_words
    if n_words % line_words != 0:
        raise ConfigurationError(
            "vector kernels operate on whole lines "
            f"({line_words} words); got {n_words}"
        )
    n_lines = n_words // line_words
    base = n_lines // params.n_columns
    extra = n_lines % params.n_columns
    lines_per_column = {}
    start = 0
    for col in range(params.n_columns):
        count = base + (1 if col < extra else 0)
        if count:
            lines_per_column[col] = (start, count)
        start += count
    return VectorPlan(
        n_words=n_words, n_lines=n_lines, lines_per_column=lines_per_column
    )


def _column_program(
    params: ArchParams,
    op: RCOp,
    a_line: int,
    b_line,
    c_line: int,
    n_lines: int,
    scalar,
) -> ColumnProgram:
    kb = ColumnKernelBuilder(params)
    kb.srf(SRF_A_ADDR, a_line)
    if b_line is not None:
        kb.srf(SRF_B_ADDR, b_line)
    kb.srf(SRF_C_ADDR, c_line)
    if scalar is not None:
        kb.srf(SRF_SCALAR, scalar)

    if b_line is not None:
        body = rc(op, DST_VWR_C, VWR_A, VWR_B)
    else:
        body = rc(op, DST_VWR_C, VWR_A, srf(SRF_SCALAR))

    with kb.counted_loop(reg=1, count=n_lines):
        kb.emit(lsu=ld_vwr(Vwr.A, SRF_A_ADDR, inc=1))
        if b_line is not None:
            kb.vector_pass(body, setup_lsu=ld_vwr(Vwr.B, SRF_B_ADDR, inc=1))
        else:
            kb.vector_pass(body)
        kb.emit(lsu=st_vwr(Vwr.C, SRF_C_ADDR, inc=1))
    kb.exit()
    return kb.build()


@planner
def elementwise_kernel(
    params: ArchParams,
    op: RCOp,
    n_words: int,
    a_line: int,
    b_line: int,
    c_line: int,
    name: str = None,
) -> KernelConfig:
    """``z = x op y`` over ``n_words`` (line-aligned regions)."""
    plan = plan_split(params, n_words)
    columns = {}
    for col, (start, count) in plan.lines_per_column.items():
        columns[col] = _column_program(
            params, op,
            a_line + start, b_line + start, c_line + start,
            count, scalar=None,
        )
    return KernelConfig(
        name=name or f"vec_{op.name.lower()}_{n_words}", columns=columns
    )


@planner
def scalar_kernel(
    params: ArchParams,
    op: RCOp,
    n_words: int,
    a_line: int,
    c_line: int,
    scalar: int,
    name: str = None,
) -> KernelConfig:
    """``z = x op scalar`` with the scalar broadcast from the SRF."""
    plan = plan_split(params, n_words)
    columns = {}
    for col, (start, count) in plan.lines_per_column.items():
        columns[col] = _column_program(
            params, op,
            a_line + start, None, c_line + start,
            count, scalar=scalar,
        )
    return KernelConfig(
        name=name or f"vecs_{op.name.lower()}_{n_words}", columns=columns
    )
