"""Energy-model tests: calibration reproduces the paper's anchors."""

import pytest

from repro.core.events import Ev
from repro.energy import (
    COMPONENT_OF_EVENT,
    VWR2A_COMPONENTS,
    default_model,
    default_table,
    table3_breakdown,
)
from repro.energy.anchors import (
    CPU_PJ_PER_CYCLE,
    FFT_ACCEL_TOTAL_MW,
    VWR2A_POWER_MW,
    VWR2A_TOTAL_MW,
)
from repro.energy.tables import _accel_anchor, _vwr2a_anchor


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def vwr2a_anchor():
    return _vwr2a_anchor()


@pytest.fixture(scope="module")
def accel_anchor():
    return _accel_anchor()


def test_every_vwr2a_event_is_mapped():
    for attr, name in vars(Ev).items():
        if attr.startswith("_") or not isinstance(name, str):
            continue
        if name.startswith("cpu."):
            continue
        assert name in COMPONENT_OF_EVENT, name


def test_table_has_positive_energies():
    table = default_table()
    assert all(v >= 0 for v in table.per_event_pj.values())
    assert all(v >= 0 for v in table.leakage_pj_per_cycle.values())
    assert table.cpu_pj_per_cycle == CPU_PJ_PER_CYCLE


def test_anchor_reproduces_table3_total(model, vwr2a_anchor):
    report = model.vwr2a_report(vwr2a_anchor.events, vwr2a_anchor.cycles)
    assert report.power_mw() == pytest.approx(VWR2A_TOTAL_MW, rel=0.02)


def test_anchor_reproduces_table3_components(model, vwr2a_anchor):
    report = model.vwr2a_report(vwr2a_anchor.events, vwr2a_anchor.cycles)
    rows = table3_breakdown(report)
    assert rows["DMA"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["dma"], rel=0.05
    )
    assert rows["Memories"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["memories"], rel=0.05
    )
    assert rows["Control"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["control"], rel=0.05
    )
    assert rows["Datapath"]["mw"] == pytest.approx(
        VWR2A_POWER_MW["datapath"], rel=0.05
    )


def test_accel_anchor_reproduces_total(model, accel_anchor):
    report = model.accel_report(accel_anchor.events, accel_anchor.cycles)
    assert report.power_mw() == pytest.approx(FFT_ACCEL_TOTAL_MW, rel=0.02)


def test_power_ratio_matches_paper(model, vwr2a_anchor, accel_anchor):
    ours = model.vwr2a_report(
        vwr2a_anchor.events, vwr2a_anchor.cycles
    ).power_mw()
    theirs = model.accel_report(
        accel_anchor.events, accel_anchor.cycles
    ).power_mw()
    assert ours / theirs == pytest.approx(5.5, rel=0.05)


def test_leakage_scales_with_idle_cycles(model):
    """More idle cycles, same activity -> more energy, lower power."""
    events = {Ev.RC_ALU_ADD: 1000}
    short = model.vwr2a_report(events, 1000)
    long = model.vwr2a_report(events, 10000)
    assert long.total_pj > short.total_pj
    assert long.power_mw() < short.power_mw()


def test_activity_based_power_varies_by_kernel(model):
    """Low-activity (control-heavy) windows draw less power than the FFT
    anchor — the paper's delineation row behaviour."""
    anchor = _vwr2a_anchor()
    fft_power = model.vwr2a_report(anchor.events, anchor.cycles).power_mw()
    sparse = {Ev.LCU_ISSUE: 5000, Ev.PM_FETCH: 35000, Ev.SRF_READ: 5000}
    sparse_power = model.vwr2a_report(sparse, 5000).power_mw()
    assert sparse_power < fft_power


def test_cpu_energy_helper(model):
    assert model.cpu_energy_uj(1_000_000) == pytest.approx(
        CPU_PJ_PER_CYCLE, rel=1e-6
    )


def test_report_component_scoping(model):
    events = {Ev.RC_ALU_MUL: 10, Ev.FFT_ACCEL_BUTTERFLY: 10}
    vwr2a = model.vwr2a_report(events, 10)
    assert "accel_datapath" not in vwr2a.by_component
    accel = model.accel_report(events, 10)
    assert "datapath" not in accel.by_component
    assert set(vwr2a.by_component) <= set(VWR2A_COMPONENTS)


# ---------------------------------------------------------------------------
# Per-launch folding (kernel energy from each launch's own event delta)
# ---------------------------------------------------------------------------

def _fft_launches(engine: str = "auto"):
    """Kernel launches of an FFT-256 flow on ``engine``."""
    from repro.kernels import FftEngine, KernelRunner
    from repro.soc.platform import BiosignalSoC

    runner = KernelRunner(soc=BiosignalSoC(engine=engine))
    log = []
    runner.launch_log = log
    signal = [((i * 37 + (i * i) % 211) % 2000) - 1000 for i in range(256)]
    FftEngine(runner, 256).run(signal, signal[::-1])
    return log


def test_fold_histogram_equals_per_event_energy(model):
    """Differential: a launch's folded delta == per-event energy, exactly."""
    launches = _fft_launches()
    assert launches
    for result in launches:
        assert result.engine == "compiled"
        assert result.events
        folded = model.fold_histogram(((result.events, 1),))
        direct = model.report(
            dict(result.events), cycles=0, powered_components=()
        )
        assert folded.by_component == direct.by_component


def test_fold_histogram_leakage_matches_report(model):
    histogram = (((Ev.RC_ALU_ADD, 3), (Ev.SRF_READ, 1)), 10),
    folded = model.fold_histogram(
        histogram, cycles=500, powered_components=("datapath", "control")
    )
    direct = model.report(
        {Ev.RC_ALU_ADD: 30, Ev.SRF_READ: 10}, 500,
        powered_components=("datapath", "control"),
    )
    for component, pj in direct.by_component.items():
        assert folded.by_component[component] == pytest.approx(pj)
    assert folded.cycles == direct.cycles == 500


def test_run_result_energy_is_the_same_on_every_engine(model):
    auto, reference = _fft_launches("auto"), _fft_launches("reference")
    assert [r.engine for r in auto] == ["compiled"] * len(auto)
    assert [r.engine for r in reference] == ["reference"] * len(reference)
    for a, b in zip(auto, reference, strict=True):
        assert a.events == b.events
        assert a.energy_pj(model) == b.energy_pj(model)
        assert a.energy_pj(model)


def test_launch_without_events_folds_to_nothing(model):
    from repro.core.cgra import RunResult

    empty = RunResult(name="r", cycles=1, config_cycles=0, column_steps={})
    assert empty.energy_pj(model) == {}
