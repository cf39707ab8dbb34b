"""Architecture parameters, FIR layout, vector planning."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import (
    DEFAULT_PARAMS,
    DEFAULT_SPEC,
    ArchParams,
    ArchSpec,
    EnergyScaling,
    SocParams,
)
from repro.core.errors import ConfigurationError
from repro.kernels.fir import plan_fir
from repro.kernels.vector import plan_split


class TestArchParams:
    def test_paper_configuration(self):
        p = DEFAULT_PARAMS
        assert p.n_columns == 2
        assert p.rcs_per_column == 4
        assert p.n_vwrs == 3
        assert p.vwr_bits == 4096
        assert p.slice_words == 32
        assert p.spm_bytes == 32 * 1024
        assert p.spm_lines == 64
        assert p.line_words == p.vwr_words == 128
        assert p.program_words == 64
        assert p.srf_entries == 8
        assert p.cycle_s == pytest.approx(12.5e-9)

    def test_small_variant(self):
        p = ArchParams(vwr_words=32, spm_bytes=4096)
        assert p.slice_words == 8
        assert p.spm_lines == 32

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ArchParams(vwr_words=100)       # not divisible by 4 slices... 100/4=25 not pow2
        with pytest.raises(ValueError):
            ArchParams(n_columns=0)
        with pytest.raises(ValueError):
            ArchParams(spm_bytes=1000)

    def test_soc_params(self):
        s = SocParams()
        assert s.sram_bank_bytes == 32 * 1024
        assert s.cycle_s == pytest.approx(12.5e-9)

    def test_rejects_slice_beyond_mxcu_k_field(self):
        # slice_words = 64 cannot be indexed by the 5-bit MXCU k field.
        with pytest.raises(ValueError, match="5-bit k field"):
            ArchParams(rcs_per_column=2)
        # Scaling vwr_words with the RC count keeps the slice legal.
        assert ArchParams(rcs_per_column=2, vwr_words=64).slice_words == 32


#: Small valid geometry grid for the spec property tests: every combo
#: keeps slices power-of-two, <= 32 words, and whole SPM lines.
_spec_strategy = st.builds(
    lambda cols, rcs_exp, slice_exp, spm_exp, srf, name: ArchSpec(
        arch=ArchParams(
            n_columns=cols,
            rcs_per_column=2 ** rcs_exp,
            vwr_words=2 ** (rcs_exp + slice_exp),
            spm_bytes=2 ** spm_exp * 1024,
            srf_entries=srf,
        ),
        name=name,
    ),
    cols=st.integers(1, 4),
    rcs_exp=st.integers(0, 3),
    slice_exp=st.integers(2, 5),
    spm_exp=st.integers(4, 7),
    srf=st.sampled_from([8, 16]),
    name=st.sampled_from(["", "a", "point-1"]),
)


class TestArchSpec:
    def test_default_is_the_paper_point(self):
        assert DEFAULT_SPEC.arch == DEFAULT_PARAMS
        assert DEFAULT_SPEC.name == "paper"
        assert DEFAULT_SPEC == ArchSpec()  # name excluded from equality

    def test_rejects_wrong_bundle_types(self):
        with pytest.raises(ValueError, match="must be ArchParams"):
            ArchSpec(arch={"n_columns": 2})
        with pytest.raises(ValueError, match="must be SocParams"):
            ArchSpec(soc=42)
        with pytest.raises(ValueError, match="must be EnergyScaling"):
            ArchSpec(energy={"spm_capacity_exp": 0.5})

    def test_rejects_clock_disagreement(self):
        with pytest.raises(ValueError, match="one clock domain"):
            ArchSpec(arch=ArchParams(clock_hz=40e6))

    def test_rejects_bad_energy_exponent(self):
        with pytest.raises(ValueError, match="spm_capacity_exp"):
            EnergyScaling(spm_capacity_exp=-1.0)
        with pytest.raises(ValueError, match="vwr_bits_exp"):
            EnergyScaling(vwr_bits_exp=100.0)

    def test_vary_revalidates(self):
        spec = DEFAULT_SPEC.vary("narrow", vwr_words=64)
        assert spec.name == "narrow"
        assert spec.arch.vwr_words == 64
        assert spec.soc == DEFAULT_SPEC.soc
        with pytest.raises(ValueError):
            DEFAULT_SPEC.vary("bad", rcs_per_column=3)

    def test_name_does_not_split_caches(self):
        renamed = DEFAULT_SPEC.vary("other-label")
        assert renamed == DEFAULT_SPEC
        assert renamed.fingerprint == DEFAULT_SPEC.fingerprint
        assert hash(renamed) == hash(DEFAULT_SPEC)

    def test_describe_mentions_geometry_and_fingerprint(self):
        text = DEFAULT_SPEC.describe()
        assert "2x4rc" in text and "spm32K" in text
        assert DEFAULT_SPEC.fingerprint in text

    @given(_spec_strategy)
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip_and_fingerprint_stability(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint == spec.fingerprint
        # Rebuilding from scratch (no shared objects) agrees too.
        rebuilt = ArchSpec(
            arch=ArchParams(**{
                f.name: getattr(spec.arch, f.name)
                for f in spec.arch.__dataclass_fields__.values()
            }),
            soc=spec.soc,
            energy=spec.energy,
        )
        assert rebuilt.fingerprint == spec.fingerprint
        # Distinct geometries never share a fingerprint with the default.
        if spec.arch != DEFAULT_SPEC.arch:
            assert spec.fingerprint != DEFAULT_SPEC.fingerprint


class TestFirLayoutProperties:
    @given(st.integers(16, 3000), st.integers(2, 20))
    @settings(max_examples=50, deadline=None)
    def test_gather_orders_consistent(self, n, taps):
        layout = plan_fir(DEFAULT_PARAMS, n, taps)
        assert layout.outputs_per_slice % 2 == 0
        assert layout.outputs_per_slice + layout.halo <= 32
        # Every output has a unique sparse SPM position.
        out = layout.gather_out_order(DEFAULT_PARAMS)
        assert len(out) == n
        assert len(set(out)) == n
        # Every input-layout position maps inside the padded input.
        order = layout.gather_in_order(DEFAULT_PARAMS)
        assert len(order) == layout.n_lines * 128
        assert min(order) >= 0

    def test_too_many_taps(self):
        with pytest.raises(ConfigurationError):
            plan_fir(DEFAULT_PARAMS, 100, 40)


class TestVectorPlan:
    def test_split_even(self):
        plan = plan_split(DEFAULT_PARAMS, 512)
        assert plan.n_lines == 4
        assert plan.lines_per_column == {0: (0, 2), 1: (2, 2)}

    def test_split_odd_lines(self):
        plan = plan_split(DEFAULT_PARAMS, 384)
        assert plan.lines_per_column == {0: (0, 2), 1: (2, 1)}

    def test_single_line_uses_one_column(self):
        plan = plan_split(DEFAULT_PARAMS, 128)
        assert plan.lines_per_column == {0: (0, 1)}

    def test_rejects_partial_lines(self):
        with pytest.raises(ConfigurationError):
            plan_split(DEFAULT_PARAMS, 100)
