"""Build-once kernel planners and the identity-keyed configuration store.

Every planner is memoized on its arguments (:mod:`repro.kernels.memo`), so
a warm launch stores the very :class:`KernelConfig` object stored before
and the store skips validation, hazard checks and encoding off the
config's stamp. These tests pin that contract host-independently: a warm
FFT-2048 transform or served window must build no kernel and encode or
hazard-check nothing, so per-launch rebuilds cannot creep back in.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.app import WINDOW, respiration_signal
from repro.asm.builder import ProgramBuilder
from repro.baselines import lowpass_taps_q15
from repro.core.cgra import Vwr2a
from repro.core.errors import StructuralHazardError
from repro.explore import design_space
from repro.isa.lcu import ldsrf
from repro.isa.lsu import set_srf
from repro.isa.program import ColumnProgram, KernelConfig
from repro.isa.rc import RCOp
from repro.kernels import KernelRunner, SplitFftEngine
from repro.kernels.features import _diff_column
from repro.kernels.fft import (
    BatchAddresses,
    build_batch_kernel,
    master_twiddles,
)
from repro.kernels.fir import build_fir_kernel, plan_fir
from repro.kernels.memo import PLANNER_CAP, PLANNERS
from repro.kernels.vector import elementwise_kernel
from repro.serve import StreamScheduler, WindowStream

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def planner_builds() -> int:
    """Kernel builds performed so far, over every memoized planner."""
    return sum(p.cache_info().misses for p in PLANNERS)


def _signal(n: int, scale: int) -> list:
    return [((i * 37 + (i * i) % 211) % (2 * scale)) - scale
            for i in range(n)]


class TestPlannerMemo:
    def test_same_arguments_return_the_same_object(self):
        params = Vwr2a().params
        assert elementwise_kernel(params, RCOp.SADD, 256, 0, 2, 4) \
            is elementwise_kernel(params, RCOp.SADD, 256, 0, 2, 4)
        addr = BatchAddresses(xr_pair=0, xi_pair=4, w=16, yr_lo=8,
                              yr_hi=9, yi_lo=12, yi_hi=13, scratch=52)
        # A dict keys as its tuple of items.
        assert build_batch_kernel(params, {0: addr}, "b") \
            is build_batch_kernel(params, ((0, addr),), "b")
        # Taps key as a tuple, whatever sequence type carries them.
        taps = lowpass_taps_q15(11, 0.1)
        layout = plan_fir(params, 256, 11)
        assert build_fir_kernel(params, list(taps), layout, 0, 4) \
            is build_fir_kernel(params, tuple(taps), layout, 0, 4)
        assert master_twiddles(64) is master_twiddles(64)

    def test_master_twiddles_are_immutable(self):
        re, im = master_twiddles(64)
        assert isinstance(re, tuple) and isinstance(im, tuple)

    def test_distinct_arguments_build_distinct_kernels(self):
        params = Vwr2a().params
        assert elementwise_kernel(params, RCOp.SADD, 256, 0, 2, 4) \
            is not elementwise_kernel(params, RCOp.SADD, 256, 0, 2, 6)

    def test_each_geometry_gets_its_own_kernels(self):
        kernels = {}
        for spec in design_space():
            config = elementwise_kernel(spec.arch, RCOp.SADD, 512, 0, 4, 8)
            kernels[spec.arch] = config
            # Each kernel is valid on (and stores into) its own geometry.
            Vwr2a(spec=spec).store_kernel(config)
        assert len(kernels) == len(design_space())
        assert len({id(c) for c in kernels.values()}) == len(kernels)
        by_name = {spec.name: kernels[spec.arch] for spec in design_space()}
        assert by_name["4col"].n_columns == 4
        assert by_name["1col"].n_columns == 1

    def test_memo_stays_within_its_cap(self):
        params = Vwr2a().params
        for count in range(PLANNER_CAP + 16):
            _diff_column(params, 0, 100, 200, count)
        info = _diff_column.cache_info()
        assert info.maxsize == PLANNER_CAP
        assert info.currsize <= PLANNER_CAP
        assert all(p.cache_info().currsize <= PLANNER_CAP
                   for p in PLANNERS)


class TestHandBuiltConfigs:
    """Configs built outside the planners take the full store path."""

    def test_hand_built_copy_stores_and_runs_bit_identically(self):
        states = []
        for hand_built in (False, True):
            sim = Vwr2a()
            sim.spm.poke_words(0, _signal(12 * sim.params.line_words, 900))
            config = elementwise_kernel(
                sim.params, RCOp.SSUB, 512, 0, 4, 8, name="copy_probe"
            )
            if hand_built:
                config = KernelConfig(name=config.name, columns={
                    col: ColumnProgram(list(p.bundles), dict(p.srf_init))
                    for col, p in config.columns.items()
                })
            before = sim.config_mem.stats.snapshot()
            result = sim.execute(config)
            delta = sim.config_mem.stats.since(before)
            if hand_built:
                # Fresh objects: validated, hazard-checked and encoded.
                assert delta["encode_misses"] == len(config.columns)
                assert delta["hazard_misses"] == len(config.columns)
            states.append((
                result.cycles, result.config_cycles, sim.events.snapshot(),
                sim.spm.peek_words(0, sim.params.spm_words),
                sim.config_mem.encoded(config.name),
            ))
        assert states[0] == states[1]

    def test_hand_built_configs_are_still_checked(self):
        sim = Vwr2a()
        b = ProgramBuilder()
        b.emit(lcu=ldsrf(0, 0), lsu=set_srf(1, 2))
        b.exit()
        hazardous = KernelConfig(name="bad", columns={0: b.build()})
        for _ in range(2):  # a failed store leaves no stamp behind
            with pytest.raises(StructuralHazardError):
                sim.store_kernel(hazardous)
        ok = ProgramBuilder()
        ok.exit()
        with pytest.raises(ValueError, match="column 7 does not exist"):
            sim.store_kernel(
                KernelConfig(name="far", columns={7: ok.build()})
            )


class TestWarmLaunchesBuildNothing:
    def test_warm_fft2048_transform(self):
        runner = KernelRunner()
        fft = SplitFftEngine(runner, 2048)
        fft.prepare()
        base = runner.sram_alloc(0)
        runner.set_sram_region(base, runner.soc.sram.n_words - base)
        fft.run(_signal(2048, 1000), _signal(2048, 700))  # cold
        stats = runner.soc.vwr2a.config_mem.stats
        builds, before = planner_builds(), stats.snapshot()
        runner.reset_sram()
        fft.run(_signal(2048, 600), _signal(2048, 900))
        delta = stats.since(before)
        assert planner_builds() == builds
        assert delta["encode_misses"] == delta["hazard_misses"] == 0
        assert delta["analysis_misses"] == 0
        # The same objects under the same names: every store dedupes.
        assert delta["dedup_hits"] == delta["stores"] > 0

    def test_warm_serve_window(self):
        runner = KernelRunner()
        scheduler = StreamScheduler(
            "cpu_vwr2a", runner=runner, energy_model=True
        )
        stream = WindowStream(respiration_signal(WINDOW), window=WINDOW)
        cold = scheduler.run(stream)
        stats = runner.soc.vwr2a.config_mem.stats
        builds, before = planner_builds(), stats.snapshot()
        warm = scheduler.run(stream)
        delta = stats.since(before)
        assert planner_builds() == builds
        assert delta["encode_misses"] == delta["hazard_misses"] == 0
        assert delta["stores"] > 0
        assert warm.identical_to(cold) is None


def _perfbench_tracing():
    """``perfbench/tracing.py``, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_targets_resolve_into_src():
    """Every span target of ``perfbench/tracing.py`` is a callable in src/.

    The benchmark patches these names at run time and fails on a missing
    one; checking here catches a renamed or moved planner in tier-1.
    """
    tracing = _perfbench_tracing()
    assert tracing.TARGETS
    for _, module_name, path in tracing.TARGETS:
        module, _, _, target = tracing._resolve(module_name, path)
        assert target is not None, f"{module_name}.{path} is missing"
        assert callable(target), f"{module_name}.{path} is not callable"
        assert Path(module.__file__).resolve().is_relative_to(SRC), \
            f"{module_name} is not imported from src/"
        assert importlib.import_module(module_name) is module


def test_every_benchmarked_planner_is_memoized():
    tracing = _perfbench_tracing()
    planners = [t for t in tracing.TARGETS if t[0] == "kernels"]
    assert len(planners) == 12
    for _, module_name, path in planners:
        target = tracing._resolve(module_name, path)[3]
        assert target in PLANNERS, f"{module_name}.{path} is not memoized"
