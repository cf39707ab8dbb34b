"""SoC substrate tests: bus, SRAM, CPU accounting, FFT accelerator, DMA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_SOC_PARAMS
from repro.core.errors import AddressError, ConfigurationError
from repro.core.events import Ev, EventCounters
from repro.soc import (
    AhbBus,
    BankedSram,
    BiosignalSoC,
    CortexM4Model,
    Domain,
    FftAccelerator,
    InterruptController,
    PowerManager,
)


class TestBus:
    def test_burst_cost(self):
        bus = AhbBus()
        # 8-beat bursts, 4-cycle setup: 16 words = 2 bursts.
        assert bus.burst_cycles(16) == 2 * 4 + 16
        assert bus.burst_cycles(1) == 4 + 1
        assert bus.burst_cycles(0) == 0

    @given(st.integers(1, 10000))
    def test_cost_monotone_and_superlinear_floor(self, n):
        bus = AhbBus()
        assert bus.burst_cycles(n) >= n + 4


class TestSram:
    def test_rw_and_banks(self):
        sram = BankedSram()
        sram.write_word(0, 42)
        assert sram.read_word(0) == 42
        assert sram.bank_of(0) == 0
        last = sram.n_words - 1
        assert sram.bank_of(last) == DEFAULT_SOC_PARAMS.sram_banks - 1

    def test_power_gating_blocks_access(self):
        sram = BankedSram()
        sram.set_bank_power(0, False)
        with pytest.raises(AddressError, match="power-gated"):
            sram.read_word(0)
        sram.set_bank_power(0, True)
        assert sram.read_word(0) == 0

    def test_bounds(self):
        sram = BankedSram()
        with pytest.raises(AddressError):
            sram.read_word(sram.n_words)


class TestCpu:
    def test_charge_and_sleep(self):
        cpu = CortexM4Model()
        cpu.charge(100)
        cpu.sleep(50)
        assert cpu.active_cycles == 100
        assert cpu.sleep_cycles == 50
        with pytest.raises(ValueError):
            cpu.charge(-1)


class TestPowerDomains:
    def test_gating_and_accounting(self):
        pm = PowerManager()
        assert pm.is_powered(Domain.CPU)
        assert not pm.is_powered(Domain.ACCELERATORS)
        pm.advance(100)
        assert pm.on_cycles(Domain.CPU) == 100
        assert pm.on_cycles(Domain.ACCELERATORS) == 0
        pm.power_on(Domain.ACCELERATORS)
        pm.advance(10)
        assert pm.on_cycles(Domain.ACCELERATORS) == 10
        with pytest.raises(ConfigurationError):
            pm.power_off(Domain.ACCELERATORS) or pm.require(
                Domain.ACCELERATORS
            )


class TestIrq:
    def test_lines(self):
        irq = InterruptController()
        irq.raise_line("vwr2a")
        assert irq.pending("vwr2a") and irq.any_pending()
        irq.acknowledge("vwr2a")
        assert not irq.any_pending()
        with pytest.raises(ConfigurationError):
            irq.raise_line("nope")


class TestFftAccelerator:
    def test_complex_accuracy(self):
        rng = np.random.default_rng(0)
        n = 1024
        re = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        im = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        result = FftAccelerator().complex_fft(re, im)
        ref = np.fft.fft((np.array(re) + 1j * np.array(im)) / 32768)
        got = np.array(result.spectrum())
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 5e-3

    def test_real_accuracy(self):
        rng = np.random.default_rng(1)
        x = (rng.uniform(-0.5, 0.5, 2048) * 32768).astype(int).tolist()
        result = FftAccelerator().real_fft(x)
        ref = np.fft.rfft(np.array(x) / 32768)
        got = np.array(result.spectrum())
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 5e-3

    def test_cycles_match_table2(self):
        accel = FftAccelerator()
        paper = {512: 7099, 1024: 13629, 2048: 31299}
        for n, cycles in paper.items():
            got = accel.complex_fft([1000] * n, [0] * n).cycles
            assert got == pytest.approx(cycles, rel=0.06)
        paper_real = {512: 3523, 1024: 8007, 2048: 16490}
        for n, cycles in paper_real.items():
            got = accel.real_fft([1000] * n).cycles
            assert got == pytest.approx(cycles, rel=0.06)

    def test_dynamic_scaling_engages(self):
        # Full-scale input forces block-exponent growth without overflow.
        x = [32767 if i % 2 == 0 else -32768 for i in range(512)]
        result = FftAccelerator().real_fft(x)
        assert result.scale > 0
        limit = 1 << 17
        assert all(-limit <= v < limit for v in result.re)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            FftAccelerator().complex_fft([0] * 100, [0] * 100)

    def test_events_logged(self):
        events = EventCounters()
        FftAccelerator(events).real_fft([100] * 512)
        assert events.get(Ev.FFT_ACCEL_BUTTERFLY) > 0
        assert events.get(Ev.FFT_ACCEL_IO) == 512 + 257


class TestPlatformDma:
    def test_roundtrip_and_interrupt(self):
        soc = BiosignalSoC()
        soc.with_accelerators()
        soc.sram.poke_words(0, list(range(64)))
        cycles = soc.dma_to_vwr2a(0, 128, 64)
        assert cycles > 64
        assert soc.vwr2a.spm.peek_words(128, 64) == list(range(64))
        back = soc.dma_from_vwr2a(128, 1000, 64)
        assert soc.sram.peek_words(1000, 64) == list(range(64))
        assert back > 64

    def test_gated_accelerators_refuse_work(self):
        soc = BiosignalSoC()
        soc.without_accelerators()
        with pytest.raises(ConfigurationError):
            soc.dma_to_vwr2a(0, 0, 4)

    def test_cpu_sleeps_during_kernel(self):
        soc = BiosignalSoC()
        soc.with_accelerators()
        before = soc.cpu.sleep_cycles
        soc.dma_to_vwr2a(0, 0, 16)
        assert soc.cpu.sleep_cycles > before

    @given(st.integers(1, 500))
    @settings(max_examples=20, deadline=None)
    def test_dma_gather_preserves_data(self, n):
        soc = BiosignalSoC()
        soc.with_accelerators()
        data = list(range(n))
        soc.sram.poke_words(0, data)
        order = list(reversed(range(n)))
        soc.vwr2a.dma.to_spm(soc.sram, 0, 0, n, order=order)
        assert soc.vwr2a.spm.peek_words(0, n) == list(reversed(data))
