"""Parameter sweeps: one trace, many application variants, one runner.

A :class:`ParameterSweep` replays the same :class:`~repro.serve.WindowStream`
under N cases — different platform configurations (``cpu``,
``cpu_fft_accel``, ``cpu_vwr2a``), different
:class:`~repro.app.AppParams` (filter taps, delineation thresholds,
spectral feature bands), and/or different :class:`~repro.arch.ArchSpec`
design points (array geometry, SPM capacity, clock) — on one shared
runner per design point, so compiled programs, configuration-word
encodings and SPM-conflict verdicts carry over between cases instead of
being rebuilt per scenario.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.app.mbiotracker import AppParams
from repro.arch import ArchSpec
from repro.core.errors import ConfigurationError
from repro.energy.model import EnergyModel
from repro.kernels.runner import KernelRunner
from repro.serve.report import StreamReport
from repro.serve.scheduler import StreamScheduler, _resolve_energy
from repro.serve.stream import WindowStream


@dataclass(frozen=True)
class SweepCase:
    """One sweep axis point: a named configuration + parameter variant.

    ``arch`` selects the VWR2A design point the case runs on; ``None``
    means the sweep runner's own spec (the paper geometry by default).
    Cases sharing a design point share a runner — and therefore its
    compile-once caches — while distinct specs get isolated platforms.
    """

    name: str                       #: unique case label (report key)
    config: str = "cpu_vwr2a"       #: platform configuration
    params: AppParams | None = None  #: AppParams override (None = paper)
    arch: ArchSpec | None = None     #: design point (None = sweep default)
    #: ``(runner, samples) -> result`` callable serving each
    #: window instead of the MBioTracker pipeline (e.g. a single-kernel
    #: workload from :mod:`repro.explore.kernels`). Wins over
    #: ``config``/``params`` exactly as in :class:`StreamScheduler`.
    pipeline: object = None


@dataclass
class SweepReport:
    """Per-case stream reports plus cross-case comparisons."""

    #: case name -> StreamReport
    reports: dict[str, StreamReport] = field(default_factory=dict)

    @property
    def cases(self) -> list[str]:
        return list(self.reports)

    def __getitem__(self, name: str) -> StreamReport:
        return self.reports[name]

    def __iter__(self):
        return iter(self.reports.items())

    def best(self, key=lambda report: report.total_cycles) -> str:
        """Name of the case minimizing ``key`` (total cycles by default)."""
        if not self.reports:
            raise ConfigurationError("the sweep produced no reports")
        return min(self.reports, key=lambda name: key(self.reports[name]))

    def table(self) -> str:
        """ASCII comparison of all cases."""
        header = (
            f"{'case':<24} {'config':<14} {'windows':>7} "
            f"{'cycles':>10} {'cyc/win':>9} {'energy uJ':>10} {'labels':>7}"
        )
        lines = [header, "-" * len(header)]
        for name, report in self.reports.items():
            n = report.n_windows or 1
            energy = report.total_energy_uj
            labels = report.labels
            high = sum(1 for label in labels if label == 1)
            lines.append(
                f"{name:<24} {report.config:<14} {report.n_windows:>7} "
                f"{report.total_cycles:>10} {report.total_cycles // n:>9} "
                f"{energy if energy is None else round(energy, 2)!s:>10} "
                f"{f'{high}/{len(labels)}':>7}"
            )
        return "\n".join(lines)


class ParameterSweep:
    """Runs one trace through every case, reusing a single runner.

    ``cases`` is an iterable of :class:`SweepCase` (plain configuration
    strings are promoted to default-parameter cases). Cases on the default
    design point share the sweep's runner and therefore its
    configuration-memory and compiled-program caches — the amortization
    that makes wide sweeps cheap; cases carrying an ``arch`` spec share a
    per-spec runner instead. ``window``/``hop``/``tail`` shape the stream
    exactly as in :class:`~repro.serve.WindowStream`.

    ``energy_model=True`` (the default) calibrates per design point:
    default-spec cases get :func:`repro.energy.default_model`, arch cases
    get :func:`repro.energy.model_for` on their spec. ``None`` or
    ``False`` turns energy off. An explicit
    :class:`~repro.energy.EnergyModel` is applied to every case verbatim —
    only meaningful when all cases share one design point.
    """

    def __init__(self, cases: Iterable[SweepCase | str],
                 window: int | None = None, hop: int | None = None,
                 tail: str = "drop", runner: KernelRunner | None = None,
                 energy_model: EnergyModel | bool | None = True) -> None:
        self.cases: list[SweepCase] = []
        names: set[str] = set()
        for case in cases:
            if isinstance(case, str):
                case = SweepCase(name=case, config=case)
            if case.name in names:
                raise ConfigurationError(
                    f"duplicate sweep case name {case.name!r}"
                )
            names.add(case.name)
            self.cases.append(case)
        if not self.cases:
            raise ConfigurationError("a sweep needs at least one case")
        if window is None:
            from repro.app.mbiotracker import WINDOW

            window = WINDOW
        self.window = window
        self.hop = hop
        self.tail = tail
        self.runner = runner if runner is not None else KernelRunner()
        self._energy_setting = energy_model
        # Calibrate once here, not once per case scheduler.
        self.energy_model: EnergyModel | None = _resolve_energy(energy_model)
        #: spec fingerprint -> shared runner for that design point
        self._spec_runners: dict[str, KernelRunner] = {}

    def _case_runner(self, case: SweepCase) -> KernelRunner:
        """The (shared-per-spec) runner serving ``case``."""
        if case.arch is None or case.arch == self.runner.spec:
            return self.runner
        key = case.arch.fingerprint
        if key not in self._spec_runners:
            self._spec_runners[key] = KernelRunner(spec=case.arch)
        return self._spec_runners[key]

    def _case_energy(self, case: SweepCase) -> EnergyModel | None:
        """The energy model serving ``case`` (spec-calibrated if auto)."""
        if case.arch is None or case.arch == self.runner.spec:
            return self.energy_model
        return _resolve_energy(self._energy_setting, case.arch)

    def run(self, trace) -> SweepReport:
        """Serve ``trace`` under every case; returns the sweep report.

        Cases run one after another on their design point's shared
        runner. To parallelize one long case, serve it alone through
        :class:`~repro.serve.PoolScheduler`; its per-window results are
        bit-identical to the sweep's (see docs/parallel.md).
        """
        stream = WindowStream(
            trace, window=self.window, hop=self.hop, tail=self.tail
        )
        report = SweepReport()
        for case in self.cases:
            scheduler = StreamScheduler(
                config=case.config,
                params=case.params,
                pipeline=case.pipeline,
                runner=self._case_runner(case),
                energy_model=self._case_energy(case),
            )
            report.reports[case.name] = scheduler.run(stream)
        return report
