"""Architecture exploration: specs × kernels → Pareto report.

An :class:`ExplorationCampaign` runs a grid of
:class:`~repro.arch.ArchSpec` design points × single-kernel workloads
(:mod:`repro.explore.kernels`) as one
:class:`~repro.serve.ParameterSweep` — every (spec, kernel) case serves
the same synthetic trace on its design point's shared runner, energy
auto-calibrated per design point (:func:`repro.energy.model_for`) — and
folds the per-case stream reports into a
:class:`~repro.explore.pareto.ParetoReport` of cycles vs energy per
window.

The module doubles as the CI smoke job::

    python -m repro.explore --smoke --json pareto.json

which exits non-zero when any case fails to serve its stream.
"""

from __future__ import annotations

import argparse
import time

from repro.arch import ArchSpec
from repro.core.errors import ConfigurationError
from repro.explore.kernels import KERNELS, KernelPipeline
from repro.explore.pareto import DesignPoint, ParetoReport
from repro.explore.space import design_space, smoke_space
from repro.serve.report import StreamReport, merge_counts
from repro.serve.sweep import ParameterSweep, SweepCase


class ExplorationCampaign:
    """Measures every design point on every kernel workload.

    ``specs`` defaults to :func:`~repro.explore.space.design_space`;
    ``kernels`` names workloads from :data:`~repro.explore.kernels.KERNELS`;
    ``windows`` sizes the served stream (each window is one kernel
    invocation).
    """

    def __init__(self, specs: list[ArchSpec] | None = None,
                 kernels: tuple[str, ...] = KERNELS,
                 windows: int = 2, window: int | None = None) -> None:
        self.specs = list(specs) if specs is not None else design_space()
        if not self.specs:
            raise ConfigurationError("exploration needs at least one spec")
        names = [spec.name or spec.fingerprint for spec in self.specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"exploration specs need unique names, got {names}"
            )
        self.kernels = tuple(kernels)
        if not self.kernels:
            raise ConfigurationError("exploration needs at least one kernel")
        for kernel in self.kernels:
            if kernel not in KERNELS:
                raise ConfigurationError(
                    f"unknown exploration kernel {kernel!r} "
                    f"(choose from {KERNELS})"
                )
        if windows < 1:
            raise ConfigurationError("exploration needs at least one window")
        if window is None:
            from repro.app.mbiotracker import WINDOW

            window = WINDOW
        self.windows = windows
        self.window = window

    def _cases(self) -> list[SweepCase]:
        return [
            SweepCase(
                name=f"{spec.name or spec.fingerprint}:{kernel}",
                arch=spec,
                pipeline=KernelPipeline(kernel),
            )
            for spec in self.specs
            for kernel in self.kernels
        ]

    def run(self, trace=None) -> ParetoReport:
        """Explore the grid; returns the Pareto report over all specs."""
        if trace is None:
            from repro.app.signals import respiration_signal

            trace = respiration_signal(self.windows * self.window)
        start = time.perf_counter()
        sweep = ParameterSweep(
            cases=self._cases(),
            window=self.window,
            hop=self.window,
        )
        results = sweep.run(trace)
        wall = time.perf_counter() - start

        points = []
        complete = True
        for spec in self.specs:
            label = spec.name or spec.fingerprint
            cycles = 0.0
            energy = 0.0
            kernel_cycles: dict[str, float] = {}
            engine_counts: dict[str, int] = {}
            for kernel in self.kernels:
                report: StreamReport = results[f"{label}:{kernel}"]
                if report.n_failed or not report.n_windows:
                    complete = False
                    if not report.n_windows:
                        continue
                n = report.n_windows
                kernel_cycles[kernel] = report.total_cycles / n
                cycles += report.total_cycles / n
                total_uj = report.total_energy_uj
                if total_uj is None:
                    complete = False
                else:
                    energy += total_uj / n
                merge_counts(engine_counts, report.engine_counts)
            points.append(DesignPoint(
                name=label,
                fingerprint=spec.fingerprint,
                geometry=spec.describe(),
                cycles_per_window=cycles,
                energy_uj_per_window=energy,
                kernel_cycles=kernel_cycles,
                engine_counts=engine_counts,
            ))
        return ParetoReport(
            points=points,
            meta={
                "kernels": list(self.kernels),
                "windows": self.windows,
                "window": self.window,
                "wall_seconds": wall,
                "complete": complete,
            },
        )


# -- CLI (the CI smoke job) ---------------------------------------------------

def main(argv=None) -> int:
    """Explore the design grid on synthetic respiration; 0 iff complete."""
    parser = argparse.ArgumentParser(
        description=(
            "Architecture design-space exploration: cycles vs energy "
            "Pareto report over VWR2A geometries (see docs/architecture.md)."
        )
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke grid: 4 specs x 1 kernel, 1 window",
    )
    parser.add_argument(
        "--windows", type=int, default=None,
        help="stream length in windows per case (default 2; smoke 1)",
    )
    parser.add_argument(
        "--kernels", default=None,
        help=f"comma-separated kernel workloads from {KERNELS}",
    )
    parser.add_argument(
        "--specs", default=None,
        help="comma-separated spec names from the default design space",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the Pareto report as JSON",
    )
    args = parser.parse_args(argv)

    specs = smoke_space() if args.smoke else design_space()
    if args.specs:
        wanted = [name for name in args.specs.split(",") if name]
        by_name = {spec.name: spec for spec in design_space()}
        missing = [name for name in wanted if name not in by_name]
        if missing:
            parser.error(
                f"unknown specs {missing}; choose from "
                f"{sorted(by_name)}"
            )
        specs = [by_name[name] for name in wanted]
    if args.kernels:
        kernels = tuple(k for k in args.kernels.split(",") if k)
    else:
        kernels = ("rfft",) if args.smoke else KERNELS
    windows = args.windows if args.windows is not None \
        else (1 if args.smoke else 2)

    campaign = ExplorationCampaign(
        specs=specs, kernels=kernels, windows=windows,
    )
    report = campaign.run()
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.json}")
    return 0 if report.meta.get("complete") else 1


if __name__ == "__main__":
    raise SystemExit(main())
