"""The workloads: seeded inputs, set-up, timed rounds and checks.

Each workload is a closed loop with one caller. A *round* is one unit of
timed work — a streamed ``serve_trace`` call of ``chunk`` windows, or
``fft_batch`` transforms; host times are scaled to reference
seconds by probes of the host's speed taken between rounds
(``hostspeed``). The program only
sees the generated samples.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import random
import time
from dataclasses import dataclass

from repro.app import WINDOW
from repro.app.signals import (
    RespirationConfig,
    high_workload_config,
    low_workload_config,
    respiration_signal,
)
from repro.energy import default_model
from repro.kernels import KernelRunner, SplitFftEngine
from repro.kernels.fft2048 import split_fft_reference_int
from repro.serve import StreamScheduler, Window, serve_trace

import hostspeed
from tracing import ITEM_TARGET

CONFIG = "cpu_vwr2a"
FFT_N = 2048


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; :data:`TINY` is the test-size run."""

    chunk: int = 32           #: windows per serve_trace call
    fft_batch: int = 4        #: transforms per round
    trace_windows: int = 384  #: distinct windows generated per seed
    fft_inputs: int = 16      #: distinct FFT inputs generated per seed
    setup_samples: int = 9    #: cold set-ups per run (median reported)
    check_samples: int = 3    #: items replayed on the reference engine


DEFAULT = Sizes()
TINY = Sizes(chunk=2, fft_batch=1, trace_windows=4, fft_inputs=2,
             setup_samples=1, check_samples=1)


def respiration_trace(seed: int, n_windows: int) -> list:
    """Segments of resting, default and high-load breathing, all seeded."""
    shapes = (
        lambda s: RespirationConfig(seed=s),
        high_workload_config,
        low_workload_config,
    )
    segment = 16
    trace = []
    for k in range(-(-n_windows // segment)):
        config = shapes[k % len(shapes)](seed * 1000 + k)
        trace.extend(respiration_signal(segment * WINDOW, config))
    return trace[: n_windows * WINDOW]


def window_digest(result) -> str:
    parts = (result.cycles, sorted(result.events.items()),
             result.app.features, result.app.label, result.energy_uj)
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


#: Energy is a float sum over the window's event counts in dict order,
#: and the compiled and reference engines insert equal counts in
#: different orders, so their totals may differ in the last bit.
ENERGY_REL_TOL = 1e-12


def _first_difference(pairs, energy=None) -> str:
    for name, mine, ref in pairs:
        if mine != ref:
            return f"{name} differs ({mine!r} vs reference {ref!r})"
    if energy is not None and not math.isclose(*energy,
                                               rel_tol=ENERGY_REL_TOL):
        return f"energy_uj differs ({energy[0]!r} vs reference {energy[1]!r})"
    return None


def _replay_window(window, result) -> str:
    """Serve ``window`` on the reference engine; first difference or None."""
    runner = KernelRunner(engine="reference")
    log = []
    runner.launch_log = log
    scheduler = StreamScheduler(CONFIG, runner=runner, energy_model=True)
    ref = scheduler.serve_window(window, log)
    return _first_difference((
        ("cycles", result.cycles, ref.cycles),
        ("events", result.events, ref.events),
        ("features", result.app.features, ref.app.features),
        ("label", result.app.label, ref.app.label),
    ), energy=(result.energy_uj, ref.energy_uj))


class Workload:
    """Base: subclasses set the class attributes and the four hooks."""

    name = ""
    item = ""            #: what one item is
    item_span = ""       #: span whose durations are the item latencies
    pass_rounds = 1      #: rounds that serve every distinct input once

    def __init__(self, seed: int, sizes: Sizes, tracer) -> None:
        self.sizes = sizes
        self.tracer = tracer
        self.kept = []
        self.failures = []

    def cold_setup(self):
        """Build the platform and serve the warm-up item."""
        raise NotImplementedError

    def setup(self) -> None:
        """The caller's own (untimed) set-up before the rounds."""
        self.state = self.cold_setup()

    def round(self, index: int, keep: bool):
        """One timed round: ``(wall_s, [(cycles, energy_uj, digest)])``."""
        raise NotImplementedError

    def check(self) -> list:
        """Failures seen in the rounds plus replays of the kept items
        against a reference; one entry per failed item."""
        raise NotImplementedError

    def measure_setup(self) -> list:
        """Cold set-up times in reference seconds, each between two host
        speed probes; forked from a process that has not warmed any of
        the program's process-wide caches."""
        times = []
        probes = [hostspeed.probe()]
        for _ in range(self.sizes.setup_samples):
            times.append(self._forked_setup())
            probes.append(hostspeed.probe())
        return [t * scale
                for t, scale in zip(times, hostspeed.scales(probes))]

    def _timed_setup(self) -> float:
        start = time.perf_counter()
        self.cold_setup()
        return time.perf_counter() - start

    def _forked_setup(self) -> float:
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=self._setup_child, args=(send,))
        child.start()
        send.close()
        try:
            if not receive.poll(120.0):
                raise RuntimeError(f"{self.name}: set-up child hung")
            elapsed = receive.recv()
        finally:
            receive.close()
            child.join(timeout=30.0)
            if child.is_alive():
                child.kill()
                child.join()
        if child.exitcode != 0:
            raise RuntimeError(
                f"{self.name}: set-up child exited {child.exitcode}"
            )
        return elapsed

    def _setup_child(self, send) -> None:
        send.send(self._timed_setup())
        send.close()


class _MbioWorkload(Workload):
    item = "window"
    item_span = ITEM_TARGET

    def __init__(self, seed, sizes, tracer) -> None:
        super().__init__(seed, sizes, tracer)
        n = sizes.trace_windows - sizes.trace_windows % sizes.chunk
        self.n_windows = max(n, sizes.chunk)
        self.pass_rounds = self.n_windows // sizes.chunk
        self.trace = respiration_trace(seed, self.n_windows)

    def chunk(self, index: int) -> list:
        first = (index * self.sizes.chunk) % self.n_windows
        return self.trace[first * WINDOW: (first + self.sizes.chunk) * WINDOW]

    def _serve(self, index: int, keep: bool, **kwargs):
        samples = self.chunk(index)
        start = time.perf_counter()
        report = serve_trace(samples, CONFIG, **kwargs)
        wall = time.perf_counter() - start
        missing = self.sizes.chunk - report.n_windows
        if missing:
            self.failures.extend(
                [f"round {index}: window not served"] * missing
            )
        if keep:
            picks = {0, len(report.windows) // 2, len(report.windows) - 1}
            for w in report.windows:
                if w.index in picks \
                        and len(self.kept) < self.sizes.check_samples:
                    window = Window(
                        index=w.index, start=w.start,
                        samples=samples[w.start: w.start + WINDOW],
                    )
                    self.kept.append((window, w))
        items = [(w.cycles, w.energy_uj, window_digest(w))
                 for w in report.windows]
        return wall, items

    def check(self) -> list:
        failures = list(self.failures)
        for window, result in self.kept:
            diff = _replay_window(window, result)
            if diff:
                failures.append(f"window {window.index}: {diff}")
        return failures


class StreamSeq(_MbioWorkload):
    """``serve_trace`` through one long-lived runner, energy on."""

    name = "stream_seq"

    def cold_setup(self):
        runner = KernelRunner()
        serve_trace(self.trace[:WINDOW], CONFIG, runner=runner)
        return runner

    def round(self, index: int, keep: bool):
        return self._serve(index, keep, runner=self.state)


class Fft2048(Workload):
    """Repeated ``SplitFftEngine(runner, 2048).run`` on one warm runner."""

    name = "fft2048"
    item = "transform"
    item_span = "bench:SplitFftEngine.run"

    def __init__(self, seed, sizes, tracer) -> None:
        super().__init__(seed, sizes, tracer)
        rng = random.Random(seed)
        self.inputs = [
            ([rng.randint(-16384, 16383) for _ in range(FFT_N)],
             [rng.randint(-16384, 16383) for _ in range(FFT_N)])
            for _ in range(sizes.fft_inputs)
        ]
        self.pass_rounds = -(-sizes.fft_inputs // sizes.fft_batch)
        self.model = default_model()
        self.used = {}      # input index -> digest of its first spectrum

    def cold_setup(self):
        runner = KernelRunner()
        engine = SplitFftEngine(runner, FFT_N)
        engine.prepare()
        # The twiddle table stays where prepare() put it; every transform
        # re-stages its own buffers above it.
        base = runner.sram_alloc(0)
        runner.set_sram_region(base, runner.soc.sram.n_words - base)
        engine.run(*self.inputs[0])
        return runner, engine

    def round(self, index: int, keep: bool):
        runner, engine = self.state
        events = runner.soc.events
        items = []
        wall = 0.0
        for k in range(self.sizes.fft_batch):
            which = (index * self.sizes.fft_batch + k) % len(self.inputs)
            before = events.snapshot()
            start = time.perf_counter()
            with self.tracer.span(self.item_span, item=True):
                runner.reset_sram()
                out = engine.run(*self.inputs[which])
            wall += time.perf_counter() - start
            cycles = out.run.total_cycles
            energy = self.model.vwr2a_report(
                events.diff(before), cycles
            ).total_uj
            digest = hash((tuple(out.re), tuple(out.im)))
            if self.used.setdefault(which, digest) != digest:
                self.failures.append(
                    f"input {which}: spectrum changed between transforms"
                )
            items.append((cycles, energy, digest))
        return wall, items

    def check(self) -> list:
        failures = list(self.failures)
        for which, digest in sorted(self.used.items()):
            re, im = split_fft_reference_int(*self.inputs[which])
            if hash((tuple(re), tuple(im))) != digest:
                failures.append(
                    f"input {which}: spectrum differs from "
                    "split_fft_reference_int"
                )
        return failures


WORKLOADS = {cls.name: cls for cls in (StreamSeq, Fft2048)}
