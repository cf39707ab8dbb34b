"""Single-kernel window workloads for architecture exploration.

The exploration campaign measures each design point on isolated paper
kernels rather than only the fused MBioTracker window: a
:class:`KernelPipeline` is a picklable ``(runner, samples) -> result``
callable (the :class:`~repro.serve.StreamScheduler` pipeline contract)
that stages one window, runs exactly one VWR2A kernel, and captures the
cycle/event delta as a :class:`~repro.app.StepResult` — the same shape
application steps use, so the serving layer's energy model attributes
the window without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.app.mbiotracker import StepResult
from repro.baselines import lowpass_taps_q15
from repro.core.errors import ConfigurationError
from repro.kernels.fir import run_fir
from repro.kernels.rfft import RfftEngine
from repro.kernels.runner import KernelRunner

#: Kernel workloads the exploration campaign measures per design point.
KERNELS = ("rfft", "fir")


@dataclass
class KernelWindowResult:
    """AppResult-shaped return value of a single-kernel workload.

    Carrying ``steps`` lets :func:`repro.serve.report.app_energy_uj`
    model the window's energy exactly as it models application steps;
    ``checksum`` folds the kernel output so cross-engine and cross-run
    identity stays checkable without shipping whole spectra around.
    """

    kernel: str                      #: which kernel produced the window
    steps: dict[str, StepResult]     #: one step: the kernel itself
    checksum: int                    #: folded output words (identity proof)

    @property
    def total_cycles(self) -> int:
        return sum(step.cycles for step in self.steps.values())


def _fold(values) -> int:
    """Order-sensitive 32-bit fold of the kernel's output words."""
    acc = 0
    for value in values:
        acc = (acc * 1000003 + (int(value) & 0xFFFFFFFF)) & 0xFFFFFFFF
    return acc


@dataclass(frozen=True)
class KernelPipeline:
    """One paper kernel bound as a picklable window workload.

    ``kernel`` selects the workload: ``"rfft"`` runs the window-sized
    real FFT (Table 2's transform step), ``"fir"`` the q15 low-pass
    filter (Table 4). Frozen and module-level, like
    :class:`~repro.app.mbiotracker.WindowPipeline`, so any serving
    transport can take it by value.
    """

    kernel: str
    fir_taps: int = 11
    fir_cutoff: float = 0.08

    #: Platform configuration the energy model attributes under: the
    #: kernels run on the VWR2A domain.
    config = "cpu_vwr2a"

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown exploration kernel {self.kernel!r} "
                f"(choose from {KERNELS})"
            )

    def __call__(self, runner: KernelRunner, samples) -> KernelWindowResult:
        soc = runner.soc
        soc.with_accelerators()
        events = soc.events.snapshot()
        active = soc.cpu.active_cycles
        sleep = soc.cpu.sleep_cycles
        if self.kernel == "rfft":
            engine = RfftEngine(runner, len(samples))
            engine.prepare()
            out = engine.run(samples)
            checksum = _fold(out.re) ^ _fold(out.im)
        else:
            taps = lowpass_taps_q15(self.fir_taps, self.fir_cutoff)
            fir = run_fir(runner, taps, samples)
            checksum = _fold(fir.samples)
        step = StepResult(
            name=self.kernel,
            cycles=(soc.cpu.active_cycles - active)
            + (soc.cpu.sleep_cycles - sleep),
            cpu_active=soc.cpu.active_cycles - active,
            cpu_sleep=soc.cpu.sleep_cycles - sleep,
            events=soc.events.diff(events),
        )
        return KernelWindowResult(
            kernel=self.kernel, steps={self.kernel: step}, checksum=checksum
        )
