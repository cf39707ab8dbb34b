"""Design-space exploration: Pareto filtering, campaign, spec isolation."""

import json

import pytest

from repro.arch import DEFAULT_SPEC
from repro.baselines import lowpass_taps_q15
from repro.core.errors import ConfigurationError
from repro.explore import (
    KERNELS,
    DesignPoint,
    ExplorationCampaign,
    KernelPipeline,
    ParetoReport,
    design_space,
    pareto_front,
    smoke_space,
)
from repro.explore.campaign import main as explore_main
from repro.app.signals import respiration_signal
from repro.kernels import KernelRunner
from repro.kernels.fir import fir_fx_reference, run_fir
from repro.kernels.rfft import RfftEngine, rfft_reference_int


def _point(name, cycles, energy):
    return DesignPoint(
        name=name, fingerprint=name, geometry=name,
        cycles_per_window=cycles, energy_uj_per_window=energy,
    )


class TestParetoFiltering:
    def test_dominance(self):
        a = _point("a", 100, 1.0)
        b = _point("b", 120, 1.2)   # worse on both
        c = _point("c", 100, 1.2)   # ties cycles, worse energy
        d = _point("d", 90, 1.5)    # faster but hungrier
        assert a.dominates(b)
        assert a.dominates(c)
        assert not a.dominates(d) and not d.dominates(a)
        assert not b.dominates(a)

    def test_equal_points_do_not_dominate(self):
        a = _point("a", 100, 1.0)
        b = _point("b", 100, 1.0)
        assert not a.dominates(b) and not b.dominates(a)
        front, dominated = pareto_front([a, b])
        assert {p.name for p in front} == {"a", "b"}
        assert dominated == []

    def test_front_filters_dominated_points(self):
        points = [
            _point("fast", 80, 2.0),
            _point("balanced", 100, 1.0),
            _point("lean", 150, 0.5),
            _point("bad", 160, 2.5),      # dominated by everything
            _point("meh", 110, 1.1),      # dominated by balanced
        ]
        front, dominated = pareto_front(points)
        assert [p.name for p in front] == ["fast", "balanced", "lean"]
        assert {p.name for p in dominated} == {"bad", "meh"}

    def test_report_rendering(self):
        report = ParetoReport(
            points=[_point("a", 100, 1.0), _point("b", 120, 1.2)],
            meta={"kernels": ["rfft"], "windows": 1},
        )
        assert report.front_names == ["a"]
        assert report["b"].cycles_per_window == 120
        with pytest.raises(KeyError):
            report["missing"]
        data = json.loads(report.to_json())
        assert data["front"] == ["a"]
        by_name = {p["name"]: p for p in data["points"]}
        assert by_name["a"]["pareto_optimal"]
        assert not by_name["b"]["pareto_optimal"]
        table = report.table()
        assert "a" in table and "cyc/win" in table


class TestKernelPipeline:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="unknown exploration"):
            KernelPipeline("dct")

    def test_fir_pipeline_matches_golden(self):
        runner = KernelRunner()
        samples = respiration_signal(512)
        result = KernelPipeline("fir")(runner, samples)
        golden = fir_fx_reference(
            samples, lowpass_taps_q15(11, 0.08)
        )
        direct = run_fir(KernelRunner(), lowpass_taps_q15(11, 0.08), samples)
        assert direct.samples == golden
        assert result.checksum == KernelPipeline("fir")(
            KernelRunner(), samples
        ).checksum
        assert result.steps["fir"].cycles > 0
        assert result.steps["fir"].events


class TestDesignSpace:
    def test_grid_shape(self):
        space = design_space()
        assert len(space) >= 8
        names = [spec.name for spec in space]
        assert len(set(names)) == len(names)
        assert space[0] == DEFAULT_SPEC
        fingerprints = {spec.fingerprint for spec in space}
        assert len(fingerprints) == len(space)

    def test_smoke_subset(self):
        assert [s.name for s in smoke_space()] \
            == ["paper", "1col", "spm16K", "vwr64"]


class TestExplorationCampaign:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one spec"):
            ExplorationCampaign(specs=[])
        with pytest.raises(ConfigurationError, match="unknown exploration"):
            ExplorationCampaign(kernels=("dct",))
        with pytest.raises(ConfigurationError, match="unique names"):
            ExplorationCampaign(specs=[DEFAULT_SPEC, DEFAULT_SPEC])
        with pytest.raises(ConfigurationError, match="at least one window"):
            ExplorationCampaign(windows=0)

    def test_serial_mini_campaign(self):
        campaign = ExplorationCampaign(
            specs=[DEFAULT_SPEC, DEFAULT_SPEC.vary("1col", n_columns=1)],
            kernels=("fir",), windows=1,
        )
        report = campaign.run()
        assert report.meta["complete"]
        assert {p.name for p in report.points} == {"paper", "1col"}
        for point in report.points:
            assert point.cycles_per_window > 0
            assert point.energy_uj_per_window > 0
            assert point.engine_counts.get("compiled", 0) > 0
            assert set(point.kernel_cycles) == {"fir"}
        assert report.front_names  # at least one non-dominated point

    def test_full_grid(self):
        """The acceptance sweep: >= 8 specs x 2 kernels."""
        campaign = ExplorationCampaign(windows=1)
        assert len(campaign.specs) >= 8 and len(campaign.kernels) >= 2
        report = campaign.run()
        assert report.meta["complete"]
        assert len(report.points) == len(campaign.specs)
        front = report.front
        assert front
        for point in report.points:
            assert set(point.kernel_cycles) == set(KERNELS)
            # Every design point must run compiled end to end.
            assert point.engine_counts.get("compiled", 0) > 0
            assert "reference" not in point.engine_counts
        # The frontier is consistent with the dominance relation.
        for point in report.dominated:
            assert any(p.dominates(point) for p in front)
        for point in front:
            assert not any(p.dominates(point) for p in report.points)


class TestExploreCli:
    def test_smoke_writes_pareto_json(self, tmp_path, capsys):
        path = tmp_path / "pareto.json"
        assert explore_main(["--smoke", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["points"]) == 4
        assert data["meta"]["complete"]
        assert data["front"]
        out = capsys.readouterr().out
        assert "Pareto frontier" in out or "design points" in out

    def test_rejects_unknown_spec_names(self):
        with pytest.raises(SystemExit):
            explore_main(["--specs", "nonsense"])


class TestCrossSpecCacheIsolation:
    """Two geometries interleaved in one process stay bit-exact.

    The engine's structural memos, conflict verdicts and superblock plans
    all key on the geometry; a cross-spec cache collision would surface
    here as corrupted outputs or drifting cycle counts.
    """

    def test_interleaved_geometries_no_cache_corruption(self):
        samples = respiration_signal(512)
        taps = lowpass_taps_q15(11, 0.08)
        golden_re, golden_im = rfft_reference_int(samples)
        golden_fir = fir_fx_reference(samples, taps)
        narrow = DEFAULT_SPEC.vary("narrow", vwr_words=64)

        def flow(runner):
            engine = RfftEngine(runner, 512)
            engine.prepare()
            out = engine.run(samples)
            runner.reset_sram()
            fir = run_fir(runner, taps, samples)
            runner.reset_sram()
            return out, fir

        # Baseline cycle counts from isolated single-spec processes.
        baseline = {}
        for spec in (DEFAULT_SPEC, narrow):
            out, fir = flow(KernelRunner(spec=spec))
            baseline[spec.fingerprint] = (
                out.run.total_cycles, fir.run.total_cycles
            )

        # Interleave the two geometries on fresh runners, twice over.
        runners = {
            spec.fingerprint: KernelRunner(spec=spec)
            for spec in (DEFAULT_SPEC, narrow)
        }
        for _ in range(2):
            for spec in (DEFAULT_SPEC, narrow):
                runner = runners[spec.fingerprint]
                out, fir = flow(runner)
                assert (out.re, out.im) == (golden_re, golden_im)
                assert fir.samples == golden_fir
                assert (
                    out.run.total_cycles, fir.run.total_cycles
                ) == baseline[spec.fingerprint]
                decisions = runner.soc.vwr2a.engine_decisions
                assert decisions.get("reference", 0) == 0
