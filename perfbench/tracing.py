"""Spans and counters around the calls into each layer of the stack.

Everything here lives outside ``src/``: the tracer patches the public
functions and methods named in :data:`TARGETS` (and a few private kernel
planners) with thin wrappers for the duration of a traced
phase, then restores the originals. Spans are kept in memory as
``(id, name, start, end, parent, item, pid)`` tuples and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: (layer, module, attribute path). Span names are
#: ``"<layer>:<attribute path>"``; a layer is named after the module it
#: measures. A target that no longer exists fails the run: a change that
#: renames one updates this table.
TARGETS = (
    ("kernels", "repro.kernels.fft", "build_batch_kernel"),
    ("kernels", "repro.kernels.fft", "master_twiddles"),
    ("kernels", "repro.kernels.fir", "build_fir_kernel"),
    ("kernels", "repro.kernels.delineation", "build_delineation_kernel"),
    ("kernels", "repro.kernels.vector", "elementwise_kernel"),
    ("kernels", "repro.kernels.vector", "scalar_kernel"),
    ("kernels", "repro.kernels.fft2048", "_combine_column_program"),
    ("kernels", "repro.kernels.rfft", "_mirror_column_program"),
    ("kernels", "repro.kernels.rfft", "_gh_column_program"),
    ("kernels", "repro.kernels.rfft", "_xw_column_program"),
    ("kernels", "repro.kernels.features", "_diff_column"),
    ("kernels", "repro.kernels.features", "_accumulate_column"),
    ("kernels.engine", "repro.kernels.fft", "FftEngine.run"),
    ("kernels.engine", "repro.kernels.fft2048", "SplitFftEngine.run"),
    ("kernels.engine", "repro.kernels.rfft", "RfftEngine.run"),
    ("kernels.runner", "repro.kernels.runner", "KernelRunner.stage_in"),
    ("kernels.runner", "repro.kernels.runner", "KernelRunner.stage_out"),
    ("core.config_mem", "repro.core.config_mem", "ConfigurationMemory.store"),
    ("core.cgra", "repro.core.cgra", "Vwr2a.run"),
    ("engine", "repro.engine.compiler", "compile_program"),
    ("engine", "repro.engine.conflicts", "analyze_columns"),
    ("energy", "repro.energy.model", "EnergyModel.fold_histogram"),
    ("energy", "repro.serve.report", "app_energy_uj"),
    ("soc", "repro.kernels.runner", "KernelRunner.__init__"),
    ("app", "repro.app.mbiotracker", "WindowPipeline.__call__"),
    ("serve", "repro.serve.scheduler", "StreamScheduler.run"),
    ("serve", "repro.serve.scheduler", "StreamScheduler.serve_window"),
    ("serve", "repro.serve.report", "StreamReport.add_window"),
    ("serve", "repro.serve.report", "StreamReport.merge"),
)

#: The per-window span: an item starts here unless the benchmark has
#: already opened one (the FFT loop opens its own item spans).
ITEM_TARGET = "serve:StreamScheduler.serve_window"

#: Only the item span — the untraced runs time latency with this alone.
LATENCY_TARGETS = tuple(
    t for t in TARGETS if f"{t[0]}:{t[2]}" == ITEM_TARGET
)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        return module, owner, attr, None
    return module, owner, attr, vars(owner)[attr]


class Tracer:
    """In-memory span recorder plus the layer counters the wrappers take."""

    def __init__(self) -> None:
        self._restore = []
        self._stack = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span and counter."""
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self.planner_args = []
        self._store_stats = {}
        self._next_id = self.pid << 32
        self.item = None
        self._next_item = self.pid << 32

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, item: bool = False):
        started_item = item and self.item is None
        if started_item:
            self._next_item += 1
            self.item = self._next_item
        sid = self._next_id = self._next_id + 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, parent, started_item, 0.0]
        self._stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def close(self, frame) -> None:
        end = time.perf_counter()
        sid, name, parent, started_item, start = frame
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.item, self.pid))
        if started_item:
            self.item = None

    def span(self, name: str, item: bool = False):
        """Context manager for spans the benchmark opens itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer.open(name, item)
                return self

            def __exit__(self, *exc):
                tracer.close(self.frame)
                return False

        return _Span()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- patching ------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap ``targets``."""
        for layer, module_name, path in targets:
            module, owner, attr, original = _resolve(module_name, path)
            if original is None:
                raise AttributeError(f"{module_name}.{path} is missing")
            name = f"{layer}:{path}"
            wrapper = self._wrapper(original, name)
            self._patch(module, owner, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, module, owner, attr, original, wrapper) -> None:
        if owner is not module:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function is also bound by name in every module
        # that imported it (``from x import f``): patch those too.
        for mod_name, other in list(sys.modules.items()):
            if other is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, name, original))
                    setattr(other, name, wrapper)

    def _wrapper(self, original, name: str):
        tracer = self
        item = name == ITEM_TARGET
        before = after = None
        if name.startswith("kernels:"):
            def after(args, kwargs, result):
                tracer.planner_args.append((name, args, kwargs))
        elif name == "kernels.runner:KernelRunner.stage_in":
            def after(args, kwargs, result):
                tracer.add("staged_words", len(args[1]))
        elif name == "kernels.runner:KernelRunner.stage_out":
            def after(args, kwargs, result):
                tracer.add("staged_words", len(result[0]))
        elif name == "core.config_mem:ConfigurationMemory.store":
            def before(args):
                stats = args[0].stats
                if id(stats) not in tracer._store_stats:
                    tracer._store_stats[id(stats)] = (stats, stats.as_dict())
        elif name == "core.cgra:Vwr2a.run":
            def after(args, kwargs, result):
                tracer.add("kernel_cycles", result.cycles)
                tracer.add("compiled_launches", result.engine == "compiled")
                tracer.add("fallbacks", result.fallback_reason is not None)
                blocks = result.superblocks or {}
                tracer.add("accelerated_loops",
                           blocks.get("accelerated_loops", 0))
                tracer.add("accelerated_trips",
                           blocks.get("accelerated_trips", 0))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = tracer.open(name, item)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- persistence ---------------------------------------------------------

    def store_deltas(self) -> dict:
        """Config-store counter deltas over every memory seen storing."""
        total = {}
        for stats, before in self._store_stats.values():
            for key, value in stats.as_dict().items():
                total[key] = total.get(key, 0) + value - before.get(key, 0)
        return total

    def planner_keys(self) -> list:
        """One key per planner call: the planner and its arguments."""
        return [repr((name, args, sorted(kwargs.items())))
                for name, args, kwargs in self.planner_args]

    def snapshot(self) -> dict:
        return {
            "spans": list(self.spans),
            "counts": dict(self.counts),
            "store": self.store_deltas(),
            "planner_keys": self.planner_keys(),
        }


# -- analysis -----------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out = {}
    for sid, _, start, end, *_ in spans:
        kids = [
            (max(k[2], start), min(k[3], end))
            for k in children.get(sid, ())
            if k[3] > start and k[2] < end
        ]
        out[sid] = (end - start) - _covered(kids)
    return out


def busy(spans, predicate) -> float:
    """Time covered by spans matching ``predicate``, per process, summed.

    Nested matches (a planner calling another) count once.
    """
    per_pid = {}
    for span in spans:
        if predicate(span[1]):
            per_pid.setdefault(span[6], []).append((span[2], span[3]))
    return sum(_covered(v) for v in per_pid.values())


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


#: Layers reported with a ``.self_s`` metric, in report order.
LAYERS = (
    "kernels", "kernels.engine", "kernels.runner", "core.config_mem",
    "core.cgra", "engine", "energy", "soc", "app", "serve", "bench",
)


def layer_metrics(trace: dict, items: int, setup: dict = None) -> dict:
    """The per-layer metric values (per item where the unit says so)."""
    spans = trace["spans"]
    counts = trace["counts"]
    store = trace["store"]
    per = 1.0 / max(items, 1)
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def n(name):
        return len(by_name.get(name, ()))

    def layer_busy(layer):
        return busy(spans, lambda s: layer_of(s) == layer)

    def name_busy(*names):
        return busy(spans, lambda s: s in names)

    def self_sum(pred):
        return sum(selfs[s[0]] for s in spans if pred(s[1]))

    build_calls = sum(len(v) for k, v in by_name.items()
                      if layer_of(k) == "kernels")
    distinct = len(set(trace["planner_keys"]))
    stage_calls = n("kernels.runner:KernelRunner.stage_in") \
        + n("kernels.runner:KernelRunner.stage_out")
    stores = store.get("stores", 0)
    launches = n("core.cgra:Vwr2a.run")
    run_s = layer_busy("core.cgra")
    kernel_cycles = counts.get("kernel_cycles", 0)
    compile_name = "engine:compile_program"

    values = {
        "kernels.build_s": layer_busy("kernels") * per,
        "kernels.build_calls": build_calls * per,
        "kernels.distinct_configs": distinct,
        "kernels.build_reuse_ratio": distinct / build_calls
        if build_calls else 0.0,
        "kernels.runner.stage_s": layer_busy("kernels.runner") * per,
        "kernels.runner.stage_calls": stage_calls * per,
        "kernels.runner.staged_words": counts.get("staged_words", 0) * per,
        "core.config_mem.store_s": layer_busy("core.config_mem") * per,
        "core.config_mem.stores": stores * per,
        "core.config_mem.encode_misses": store.get("encode_misses", 0) * per,
        "core.config_mem.hazard_misses": store.get("hazard_misses", 0) * per,
        "core.config_mem.dedup_ratio": store.get("dedup_hits", 0) / stores
        if stores else 0.0,
        "core.cgra.run_s": run_s * per,
        "core.cgra.launches": launches * per,
        "core.cgra.kernel_cycles": kernel_cycles * per,
        "core.cgra.ns_per_kernel_cycle": run_s * 1e9 / kernel_cycles
        if kernel_cycles else 0.0,
        "core.cgra.compiled_frac": counts.get("compiled_launches", 0)
        / launches if launches else 0.0,
        "core.cgra.fallbacks": counts.get("fallbacks", 0) * per,
        "engine.compile_s": name_busy(compile_name) * per,
        "engine.compile_calls": n(compile_name) * per,
        "engine.analysis_s": name_busy("engine:analyze_columns") * per,
        "engine.accelerated_loops": counts.get("accelerated_loops", 0) * per,
        "engine.accelerated_trips": counts.get("accelerated_trips", 0) * per,
        "engine.setup_compile_s": busy(
            setup["spans"], lambda s: s == compile_name
        ) if setup else 0.0,
        "energy.fold_s": layer_busy("energy") * per,
        "energy.fold_calls": (n("energy:EnergyModel.fold_histogram")
                              + n("energy:app_energy_uj")) * per,
        "soc.build_s": layer_busy("soc") * per,
        "soc.builds": n("soc:KernelRunner.__init__") * per,
        "app.pipeline_s": layer_busy("app") * per,
        "serve.scheduler_self_s": self_sum(
            lambda s: s == "serve:StreamScheduler.run"
        ) * per,
        "serve.report_merge_s": name_busy(
            "serve:StreamReport.add_window", "serve:StreamReport.merge"
        ) * per,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_sum(
            lambda s, layer=layer: layer_of(s) == layer
        ) * per
    return values
