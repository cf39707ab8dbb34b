"""Precompiled micro-op execution engine for the VWR2A simulator.

``compile once at the first launch, execute many`` — see docs/engine.md
for the design. Select per instance via
``Vwr2a(engine="auto"|"reference")``. ``auto`` (the default) runs the
compile-time cross-column SPM analysis (:mod:`repro.engine.conflicts`)
once per config object and array, keeps the verdict and the bound
compiled columns on that config's launch record
(:class:`~repro.engine.executor.Launch`), and routes each launch to the
compiled fast path when proven conflict-free, or to the reference
interpreter when columns communicate through the SPM mid-kernel. Either
way the engine returns the launch's ``RunResult``, with its own event
delta, which per-kernel energy folds from.
"""

from repro.core.errors import ConfigurationError
from repro.engine.compiler import CompiledProgram, compile_program
from repro.engine.conflicts import (
    ColumnFootprint,
    ConflictReport,
    SpmConflict,
    analyze_columns,
    column_footprint,
)
from repro.engine.deltas import bundle_event_delta
from repro.engine.executor import (
    AutoEngine,
    BoundColumn,
    ReferenceEngine,
)

#: Engine registry: name -> factory.
ENGINES = {
    AutoEngine.name: AutoEngine,
    ReferenceEngine.name: ReferenceEngine,
}


def make_engine(name: str):
    """Instantiate an execution engine by name."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r} (choose from {sorted(ENGINES)})"
        ) from None
    return factory()


__all__ = [
    "AutoEngine",
    "BoundColumn",
    "ColumnFootprint",
    "CompiledProgram",
    "ConflictReport",
    "ReferenceEngine",
    "SpmConflict",
    "ENGINES",
    "analyze_columns",
    "bundle_event_delta",
    "column_footprint",
    "compile_program",
    "make_engine",
]
