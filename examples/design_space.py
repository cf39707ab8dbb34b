"""Architecture design-space exploration with ArchSpec.

Walks the three layers of the exploration stack:

1. an :class:`~repro.arch.ArchSpec` variation running a kernel on an
   off-default geometry, bit-exact against the golden model;
2. a :class:`~repro.serve.ParameterSweep` with an ``arch`` axis — same
   trace, several design points, spec-calibrated energy;
3. the :class:`~repro.explore.ExplorationCampaign` Pareto report over
   the default grid (also ``python -m repro.explore``).

Run:  python examples/design_space.py
"""

from repro.app import WINDOW, respiration_signal
from repro.arch import DEFAULT_SPEC
from repro.baselines import lowpass_taps_q15
from repro.explore import ExplorationCampaign
from repro.kernels import KernelRunner
from repro.kernels.fir import fir_fx_reference, run_fir
from repro.serve import ParameterSweep, SweepCase


def main() -> None:
    # -- 1. one off-default geometry, bit-exact -----------------------------
    narrow = DEFAULT_SPEC.vary("narrow", vwr_words=64)
    print(f"paper point:  {DEFAULT_SPEC.describe()}")
    print(f"variation:    {narrow.describe()}\n")

    samples = respiration_signal(WINDOW)
    taps = lowpass_taps_q15(11, 0.08)
    for spec in (DEFAULT_SPEC, narrow):
        runner = KernelRunner(spec=spec)
        fir = run_fir(runner, taps, samples)
        assert fir.samples == fir_fx_reference(samples, taps)
        print(f"  {spec.name:<8} FIR-11: {fir.run.total_cycles:>6} cycles "
              f"(engine decisions: {runner.soc.vwr2a.engine_decisions})")

    # -- 2. a sweep with an arch axis ---------------------------------------
    print("\nsweep: one trace, three design points")
    sweep = ParameterSweep(
        cases=[
            SweepCase(name="paper"),
            SweepCase(name="1col",
                      arch=DEFAULT_SPEC.vary("1col", n_columns=1)),
            SweepCase(name="narrow", arch=narrow),
        ],
    )
    print(sweep.run(respiration_signal(2 * WINDOW)).table())

    # -- 3. the Pareto campaign ---------------------------------------------
    print("\nexploration campaign (default grid)")
    report = ExplorationCampaign(windows=1).run()
    print(report.summary())


if __name__ == "__main__":
    main()
