"""Deterministic maintenance of the benchmark snapshot.

All speed benchmarks merge their entries into one JSON snapshot through
:func:`update_bench`. A run writes the gitignored
``.bench/BENCH_sim_speed.json`` (:data:`BENCH_PATH`), never the
committed ``BENCH_sim_speed.json`` at the repo root
(:data:`COMMITTED_PATH`), so running the test suite leaves the tree
clean; the first entry of a fresh run is merged over the committed
snapshot, and ``benchmarks/bench_trend.py`` compares the two. To
re-baseline, copy the regenerated file over the committed one. The
output is canonicalized — keys sorted, floats clamped to
:data:`FLOAT_DIGITS` significant digits — so committed snapshots and CI
build artifacts diff stably: a re-run changes only the measurements
that actually moved, never the formatting.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_PATH = ROOT / "BENCH_sim_speed.json"
BENCH_PATH = ROOT / ".bench" / "BENCH_sim_speed.json"

#: Significant digits kept for floats — far more than timing noise
#: resolves, few enough that the JSON stays readable and diffable.
FLOAT_DIGITS = 6


def canonical(value):
    """Recursively normalize a payload for deterministic serialization."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def update_bench(update: dict) -> None:
    """Merge ``update`` into the regenerated snapshot (test-order agnostic)."""
    payload = {}
    source = BENCH_PATH if BENCH_PATH.exists() else COMMITTED_PATH
    if source.exists():
        try:
            payload = json.loads(source.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.update(update)
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(
        json.dumps(canonical(payload), indent=2, sort_keys=True) + "\n"
    )
