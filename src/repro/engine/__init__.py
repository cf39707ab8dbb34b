"""Precompiled micro-op execution engine for the VWR2A simulator.

``compile once at the first launch, execute many`` — see docs/engine.md
for the design. Select per instance via
``Vwr2a(engine="auto"|"reference")``. ``auto`` (the default) runs the
compile-time cross-column SPM analysis (:mod:`repro.engine.conflicts`)
once per config object and array, keeps the verdict and the bound
compiled columns on that config's launch record
(:class:`~repro.engine.executor.Launch`), and
:func:`~repro.engine.executor.run_launch` sends each launch to the
compiled fast path when proven conflict-free, or to the reference
interpreter when columns communicate through the SPM mid-kernel. Either
way it returns the launch's ``RunResult``, with its own event delta,
which per-kernel energy folds from. Each column program is analysed
once per geometry: its :class:`~repro.engine.superblocks.ProgramShape`
holds its blocks, loop summaries, compiled form and footprints.
"""

from repro.engine.compiler import CompiledProgram, compile_program
from repro.engine.conflicts import (
    ColumnFootprint,
    ConflictReport,
    SpmConflict,
    analyze_columns,
    column_footprint,
)
from repro.engine.deltas import bundle_event_delta
from repro.engine.executor import BoundColumn, run_launch

__all__ = [
    "BoundColumn",
    "ColumnFootprint",
    "CompiledProgram",
    "ConflictReport",
    "SpmConflict",
    "analyze_columns",
    "bundle_event_delta",
    "column_footprint",
    "compile_program",
    "run_launch",
]
