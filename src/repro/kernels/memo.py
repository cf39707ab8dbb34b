"""Build-once memo of the kernel planners.

A planner is a pure function of the :class:`ArchParams` geometry, the plan
and the baked addresses, so each distinct kernel is built once and shared:
a warm launch hands the configuration memory the *same* object it stored
before, so its store stamp (validation and encoding) and its launch
record on each array (compiled columns, the SPM-conflict verdict) are
reused. Arguments are the key; a ``dict``
(``per_column``) keys as its items and a ``list`` (``taps``) as a tuple,
everything else must be hashable. Built objects are treated as immutable.
"""

from __future__ import annotations

import functools

from repro.isa.program import KernelConfig

#: Entries kept per planner (least-recently-used evicted).
PLANNER_CAP = 256

#: Every memoized planner; ``cache_info().misses`` counts real builds.
PLANNERS = []


def _hashable(value):
    if isinstance(value, dict):
        return tuple(value.items())
    if isinstance(value, list):
        return tuple(value)
    return value


def planner(fn):
    """Memoize ``fn`` (a :func:`functools.lru_cache` behind the wrapper)."""
    cached = functools.lru_cache(maxsize=PLANNER_CAP)(fn)

    @functools.wraps(fn)
    def build(*args, **kwargs):
        if kwargs:
            kwargs = {k: _hashable(v) for k, v in kwargs.items()}
        return cached(*map(_hashable, args), **kwargs)

    build.cache_info = cached.cache_info
    build.cache_clear = cached.cache_clear
    PLANNERS.append(build)
    return build


@planner
def kernel_config(name: str, params, *columns) -> KernelConfig:
    """Kernel ``name`` whose column ``col`` runs ``builder(params, *args)``,
    one ``(col, builder, args)`` per column — so engines that assemble a
    kernel from column planners re-store the same object too."""
    return KernelConfig(name=name, columns={
        col: builder(params, *args) for col, builder, args in columns
    })
