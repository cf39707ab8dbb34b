"""Fault injection, the self-healing pool, and chaos campaigns.

The robustness contract of docs/robustness.md, proved end to end:

* **determinism of chaos** — a :class:`FaultPlan` is a seeded, frozen
  schedule, so every differential below is exactly reproducible;
* **recoverable faults are invisible** — SPM upsets, brownouts, chunk
  corruption and even SIGKILLed workers leave a final
  :class:`StreamReport` bit-identical (cycles, events, energy, features,
  labels) to an uninjected sequential run, because every spoiled attempt
  is discarded, healed and retried;
* **unrecoverable faults are explicit** — windows that exhaust the
  retry ladder are quarantined into ``failed_windows`` with their fault
  pedigree instead of aborting the stream, and a checkpoint resume
  gives them amnesty;
* **the pool never leaks** — dead and hung workers are reaped and
  respawned, and no zombie children survive a chaotic run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass

import pytest

from repro.app import WINDOW, respiration_signal
from repro.core.errors import BrownoutError, ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    CampaignReport,
    FaultCampaign,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    is_fault_failure,
    served_identical,
)
from repro.isa.rc import RCOp
from repro.kernels import KernelRunner, elementwise_kernel
from repro.serve import (
    CheckpointState,
    PoolScheduler,
    PoolWorkerError,
    StreamCheckpoint,
    StreamScheduler,
    WindowStream,
    describe_exit,
)
from repro.serve.stream import Window, corrupt_chunk, truncate_chunk
from repro.soc.power_domains import Domain

# -- cheap picklable pipelines for chaos plumbing -----------------------------

CHAOS_WINDOW = 128


@dataclass(frozen=True)
class VaddPipeline:
    """One staged SADD kernel per window — cheap, but launches a kernel
    (SPM faults only land at kernel-launch boundaries)."""

    config: str = "chaos_vadd"

    def __call__(self, runner, samples):
        line_words = runner.soc.params.line_words
        runner.stage_in(samples, 0)
        runner.stage_in(samples, line_words)
        config = elementwise_kernel(
            runner.soc.params, RCOp.SADD, len(samples),
            a_line=0, b_line=1, c_line=2, name="chaos_vadd",
        )
        runner.execute(config)
        out, _ = runner.stage_out(2 * line_words, len(samples))
        return tuple(out)


@dataclass(frozen=True)
class GrumpyVadd(VaddPipeline):
    """VaddPipeline that raises a genuine bug on one window's samples."""

    fail_first_sample: int = -1

    def __call__(self, runner, samples):
        if samples and samples[0] == self.fail_first_sample:
            raise RuntimeError("genuine pipeline bug, not a fault")
        return super().__call__(runner, samples)


@pytest.fixture(scope="module")
def chaos_stream():
    trace = respiration_signal(4 * CHAOS_WINDOW)
    return WindowStream(trace, window=CHAOS_WINDOW)


@pytest.fixture(scope="module")
def chaos_baseline(chaos_stream):
    return StreamScheduler(pipeline=VaddPipeline()).run(chaos_stream)


# -- the fault plan -----------------------------------------------------------


class TestFaultPlan:
    def test_generation_is_seed_deterministic(self):
        rates = {"spm_bitflip": 0.5, "brownout": 0.3, "worker_kill": 0.2}
        a = FaultPlan.generate(7, 16, rates)
        b = FaultPlan.generate(7, 16, rates)
        assert a == b
        assert a.specs == b.specs
        assert FaultPlan.generate(8, 16, rates) != a

    def test_plans_pickle_unchanged(self):
        plan = FaultPlan.generate(3, 8, {k: 0.4 for k in FAULT_KINDS})
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_counts_and_window_lookup(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_bitflip", window=1),
            FaultSpec(kind="spm_bitflip", window=1, addr=9),
            FaultSpec(kind="worker_kill", window=2),
        ))
        assert plan.counts() == {"spm_bitflip": 2, "worker_kill": 1}
        assert len(plan.for_window(1)) == 2
        assert plan.for_window(0) == ()
        assert plan.has_process_faults
        assert len(plan) == 3
        assert "spm_bitflip: 2" in repr(plan)

    def test_persist_and_compiled_only_gate_fires(self):
        transient = FaultSpec(kind="spm_bitflip", window=0, persist=1)
        assert transient.fires(0, "auto")
        assert not transient.fires(1, "auto")
        hard = FaultSpec(kind="spm_stuck", window=0, persist=99)
        assert hard.fires(5, "reference")
        compiled = FaultSpec(
            kind="spm_stuck", window=0, persist=99, compiled_only=True
        )
        assert compiled.fires(5, "auto")
        assert not compiled.fires(5, "reference")

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray", window=0)
        with pytest.raises(ConfigurationError, match="persist"):
            FaultSpec(kind="brownout", window=0, persist=0)
        with pytest.raises(ConfigurationError, match="window"):
            FaultSpec(kind="brownout", window=-1)
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan.generate(0, 4, {"cosmic_ray": 1.0})

    def test_injector_rejects_non_plans(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            FaultInjector([FaultSpec(kind="brownout", window=0)])


# -- injection primitives -----------------------------------------------------


class TestSpmInjection:
    def test_bitflip_and_heal_round_trip(self):
        spm = KernelRunner().soc.vwr2a.spm
        spm.poke_words(40, [0b1010])
        original = spm.inject_bitflip(40, 2)
        assert original == 0b1010
        assert spm.peek_words(40, 1) == [0b1110]
        spm.heal_word(40, original)
        assert spm.peek_words(40, 1) == [0b1010]

    def test_stuck_and_heal_round_trip(self):
        spm = KernelRunner().soc.vwr2a.spm
        spm.poke_words(7, [12345])
        original = spm.inject_stuck(7, -1)
        assert original == 12345
        assert spm.peek_words(7, 1) == [-1]
        spm.heal_word(7, original)
        assert spm.peek_words(7, 1) == [12345]

    def test_bitflip_validates_bit(self):
        from repro.core.errors import AddressError

        spm = KernelRunner().soc.vwr2a.spm
        with pytest.raises(AddressError):
            spm.inject_bitflip(0, 32)


class TestBrownout:
    def test_fuse_trips_and_powers_the_domain_off(self):
        power = KernelRunner().soc.power
        power.power_on(Domain.ACCELERATORS)
        power.schedule_brownout(Domain.ACCELERATORS, 100)
        assert power.brownout_armed
        power.advance(60)
        with pytest.raises(BrownoutError) as excinfo:
            power.advance(60)
        assert excinfo.value.domain == Domain.ACCELERATORS
        assert excinfo.value.cycles_in == 40
        assert not power.is_powered(Domain.ACCELERATORS)
        assert not power.brownout_armed

    def test_cancel_disarms_the_fuse(self):
        power = KernelRunner().soc.power
        power.power_on(Domain.ACCELERATORS)
        power.schedule_brownout(Domain.ACCELERATORS, 100)
        power.cancel_brownout()
        power.advance(10_000)  # no trip
        assert power.is_powered(Domain.ACCELERATORS)

    def test_fuse_validates_cycles(self):
        power = KernelRunner().soc.power
        with pytest.raises(ConfigurationError):
            power.schedule_brownout(Domain.ACCELERATORS, 0)

    def test_brownout_error_is_a_fault_failure(self):
        err = BrownoutError(Domain.ACCELERATORS, 123)
        assert is_fault_failure(err, ())
        assert not is_fault_failure(RuntimeError("bug"), ())
        assert is_fault_failure(RuntimeError("bug"), ("spm_bitflip",))


class TestChunkFaults:
    def test_corrupt_flips_one_sample_and_wraps(self):
        window = Window(index=0, start=0, samples=(1, 2, 3, 4))
        bad = corrupt_chunk(window, 2, 0b100)
        assert bad.samples == (1, 2, 7, 4)
        assert bad.index == 0 and bad.start == 0
        wrapped = corrupt_chunk(window, 6, 1)
        assert wrapped.samples == (1, 2, 2, 4)

    def test_truncate_shortens_without_padding(self):
        window = Window(index=1, start=4, samples=(1, 2, 3, 4))
        short = truncate_chunk(window, 2)
        assert short.samples == (1, 2)
        assert truncate_chunk(window, 99).samples == window.samples

    def test_pipeline_detects_truncated_chunks(self):
        from repro.app.mbiotracker import window_pipeline

        pipeline = window_pipeline("cpu_vwr2a")
        with pytest.raises(ConfigurationError, match="window"):
            pipeline(KernelRunner(), (0,) * (WINDOW - 3))


# -- sequential resilience ----------------------------------------------------


class TestSequentialResilience:
    def test_transient_faults_retry_to_bit_identity(
            self, chaos_stream, chaos_baseline):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_bitflip", window=0, addr=3, bit=5),
            FaultSpec(kind="spm_stuck", window=1, addr=10, value=-1),
            FaultSpec(kind="brownout", window=2, after_cycles=50),
            FaultSpec(kind="chunk_corrupt", window=3, offset=7, xor_mask=2),
        ))
        report = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=2,
        ).run(chaos_stream)
        assert report.n_failed == 0
        # Engines included: recovery never needed the reference tier.
        assert report.identical_to(chaos_baseline) is None
        assert report.resilience["retries"] == 4
        for kind in ("spm_bitflip", "spm_stuck", "brownout",
                     "chunk_corrupt"):
            assert report.resilience[f"fault:{kind}"] == 1

    def test_truncated_chunks_are_detected_and_retried(self, chaos_stream,
                                                       chaos_baseline):
        # VaddPipeline happily serves a short window, so the *detection
        # model* (a fired fault spoils the attempt) is what saves it.
        plan = FaultPlan(specs=(
            FaultSpec(kind="chunk_truncate", window=1, keep=40),
        ))
        report = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=1,
        ).run(chaos_stream)
        assert report.identical_to(chaos_baseline) is None
        assert report.resilience["fault:chunk_truncate"] == 1

    def test_persistent_fault_quarantines_instead_of_aborting(
            self, chaos_stream, chaos_baseline):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_stuck", window=1, addr=4, value=0,
                      persist=99),
        ))
        report = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=1,
        ).run(chaos_stream)
        assert report.n_windows == 3 and report.n_failed == 1
        failed = report.failed_windows[0]
        assert failed.index == 1
        assert failed.start == CHAOS_WINDOW
        assert failed.attempts == 3  # 2 primary + 1 reference
        assert failed.kinds == ("spm_stuck",)
        assert report.resilience["quarantined"] == 1
        assert "quarantined" in report.summary()
        # The served remainder is still bit-identical to the baseline.
        assert served_identical(report, chaos_baseline) is None

    def test_quarantined_windows_get_amnesty_on_resume(
            self, chaos_stream, chaos_baseline, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(kind="brownout", window=2, after_cycles=10,
                      persist=99),
        ))
        path = tmp_path / "quarantine.ckpt"
        first = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=0,
        ).run(chaos_stream, checkpoint=StreamCheckpoint(path, every=1))
        assert first.n_failed == 1
        state = StreamCheckpoint(path).load()
        assert state.complete and state.n_failed == 1
        # Resume without the hostile plan: the quarantine is released
        # and the stream completes bit-identically.
        resumed = StreamScheduler(pipeline=VaddPipeline()).run(
            chaos_stream, checkpoint=StreamCheckpoint(path, every=1))
        assert resumed.n_failed == 0
        assert resumed.identical_to(chaos_baseline) is None
        assert resumed.resilience["requarantine_released"] == 1

    def test_compiled_only_fault_recovers_on_the_reference_tier(
            self, chaos_stream, chaos_baseline):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_bitflip", window=0, addr=2, bit=1,
                      persist=99, compiled_only=True),
        ))
        for energy_model in (None, True):
            baseline = chaos_baseline if energy_model is None else \
                StreamScheduler(
                    pipeline=VaddPipeline(), energy_model=energy_model,
                ).run(chaos_stream)
            report = StreamScheduler(
                pipeline=VaddPipeline(), fault_plan=plan, max_retries=1,
                energy_model=energy_model,
            ).run(chaos_stream)
            assert report.n_failed == 0
            assert report.resilience["reference_recoveries"] == 1
            # Bit-identical in everything simulated, per-kernel energy
            # included; the engine decisions of the recovered window
            # honestly differ.
            assert report.identical_to(baseline, engines=False) is None
            assert "engine decisions differ" in report.identical_to(baseline)
            assert bool(report.energy_by_kernel) == bool(energy_model)

    def test_reference_fallback_can_be_disabled(self, chaos_stream):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_bitflip", window=0, addr=2, bit=1,
                      persist=99, compiled_only=True),
        ))
        report = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=1,
            reference_fallback=False,
        ).run(chaos_stream)
        assert report.n_failed == 1
        assert report.failed_windows[0].attempts == 2

    def test_genuine_bugs_still_propagate_under_an_armed_plan(
            self, chaos_stream):
        trace = list(chaos_stream.trace)
        pipeline = GrumpyVadd(fail_first_sample=trace[CHAOS_WINDOW])
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_bitflip", window=0, addr=1, bit=0),
        ))
        with pytest.raises(RuntimeError, match="genuine pipeline bug"):
            StreamScheduler(
                pipeline=pipeline, fault_plan=plan, max_retries=3,
            ).run(chaos_stream)

    def test_process_faults_are_skipped_not_executed(self, chaos_stream,
                                                     chaos_baseline):
        # A sequential scheduler must never kill or hang the host.
        plan = FaultPlan(specs=(
            FaultSpec(kind="worker_kill", window=0),
            FaultSpec(kind="worker_hang", window=1),
        ))
        scheduler = StreamScheduler(
            pipeline=VaddPipeline(), fault_plan=plan, max_retries=1,
        )
        report = scheduler.run(chaos_stream)
        assert report.identical_to(chaos_baseline) is None
        assert scheduler._injector.skipped == 2

    def test_scheduler_validates_retry_budget(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            StreamScheduler(pipeline=VaddPipeline(), max_retries=-1)


# -- the self-healing pool ----------------------------------------------------


class TestPoolChaos:
    def test_kill_and_corrupt_mid_stream_is_bit_identical(self):
        """The acceptance differential: a seeded plan SIGKILLs a worker
        and flips SPM bits mid-stream; the supervised pool respawns,
        retries, and the merged report — cycles, events, energy,
        features, labels — is bit-identical to an uninjected
        sequential run of the full application."""
        trace = respiration_signal(3 * WINDOW)
        stream = WindowStream(trace, window=WINDOW)
        baseline = StreamScheduler(
            config="cpu_vwr2a", energy_model=True).run(stream)
        plan = FaultPlan.generate(
            2021, stream.n_windows,
            {"worker_kill": 0.4, "spm_bitflip": 0.8},
        )
        counts = plan.counts()
        assert counts["worker_kill"] >= 1 and counts["spm_bitflip"] >= 1
        report = PoolScheduler(
            config="cpu_vwr2a", workers=2, energy_model=True,
            fault_plan=plan, max_retries=2, respawn_limit=4,
        ).run(stream)
        assert report.n_failed == 0
        assert report.identical_to(baseline) is None
        assert report.labels == baseline.labels
        assert report.total_energy_uj == baseline.total_energy_uj
        assert report.resilience["worker_deaths"] >= 1
        assert report.resilience["respawns"] \
            == report.resilience["worker_deaths"]
        assert report.resilience["fault:spm_bitflip"] >= 1
        assert multiprocessing.active_children() == []

    def test_sigkill_death_is_diagnosed_when_unrespawnable(
            self, chaos_stream):
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill", window=0),))
        with pytest.raises(PoolWorkerError) as excinfo:
            PoolScheduler(
                pipeline=VaddPipeline(), workers=1, fault_plan=plan,
                max_retries=1, respawn_limit=0,
            ).run(chaos_stream)
        assert "SIGKILL" in str(excinfo.value)
        assert "respawn budget 0 exhausted" in str(excinfo.value)
        assert excinfo.value.window_index == 0
        assert multiprocessing.active_children() == []

    def test_hung_worker_is_killed_and_respawned(self, chaos_stream,
                                                 chaos_baseline):
        plan = FaultPlan(specs=(FaultSpec(kind="worker_hang", window=1),))
        report = PoolScheduler(
            pipeline=VaddPipeline(), workers=2, fault_plan=plan,
            max_retries=1, respawn_limit=2, heartbeat_timeout=1.0,
        ).run(chaos_stream)
        assert report.n_failed == 0
        assert report.identical_to(chaos_baseline) is None
        assert report.resilience["worker_hangs"] == 1
        assert report.resilience["respawns"] == 1
        assert multiprocessing.active_children() == []

    def test_pool_quarantines_and_checkpoint_resume_completes(
            self, chaos_stream, chaos_baseline, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(kind="spm_stuck", window=2, addr=6, value=-1,
                      persist=99),
        ))
        path = tmp_path / "pool-quarantine.ckpt"
        report = PoolScheduler(
            pipeline=VaddPipeline(), workers=2, fault_plan=plan,
            max_retries=1,
        ).run(chaos_stream, StreamCheckpoint(path, every=1))
        assert report.n_failed == 1
        assert report.failed_windows[0].index == 2
        assert served_identical(report, chaos_baseline) is None
        resumed = PoolScheduler(pipeline=VaddPipeline(), workers=2).run(
            chaos_stream, StreamCheckpoint(path, every=1))
        assert resumed.n_failed == 0
        assert resumed.identical_to(chaos_baseline) is None

    def test_hang_plan_requires_heartbeat(self):
        plan = FaultPlan(specs=(FaultSpec(kind="worker_hang", window=0),))
        with pytest.raises(ConfigurationError, match="heartbeat_timeout"):
            PoolScheduler(pipeline=VaddPipeline(), fault_plan=plan)

    def test_pool_validates_resilience_knobs(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            PoolScheduler(max_retries=-1)
        with pytest.raises(ConfigurationError, match="respawn_limit"):
            PoolScheduler(respawn_limit=-1)
        with pytest.raises(ConfigurationError, match="heartbeat_timeout"):
            PoolScheduler(heartbeat_timeout=0)

    def test_describe_exit_names_signals(self):
        assert "SIGKILL" in describe_exit(-9)
        assert "SIGKILL" in describe_exit(137)
        assert "SIGTERM" in describe_exit(-15)
        assert "exit code 0" in describe_exit(0)
        assert "code 3" in describe_exit(3)
        assert describe_exit(None) == "still running"


# -- checkpoint durability ----------------------------------------------------


class TestCheckpointHardening:
    def _state(self):
        from repro.serve.checkpoint import FORMAT_VERSION

        return CheckpointState(
            fingerprint={"version": FORMAT_VERSION, "n_windows": 1}
        )

    def test_save_fsyncs_before_the_atomic_replace(
            self, tmp_path, monkeypatch):
        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real(fd))[1]
        )
        StreamCheckpoint(tmp_path / "durable.ckpt").save(self._state())
        assert synced  # the temp file (and best-effort the directory)

    def test_corrupted_checkpoint_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"\x80\x05 this is not a checkpoint")
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            assert StreamCheckpoint(path).load() is None

    def test_truncated_checkpoint_warns_and_starts_fresh(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        checkpoint = StreamCheckpoint(path)
        checkpoint.save(self._state())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="corrupted or truncated"):
            assert checkpoint.load() is None

    def test_wrong_type_still_raises(self, tmp_path):
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(ConfigurationError, match="not a stream"):
            StreamCheckpoint(path).load()

    def test_stream_recovers_over_a_corrupted_checkpoint(self, tmp_path):
        path = tmp_path / "recover.ckpt"
        path.write_bytes(b"bit rot")
        stream = WindowStream(
            respiration_signal(2 * CHAOS_WINDOW), window=CHAOS_WINDOW
        )
        with pytest.warns(RuntimeWarning, match="starting the stream"):
            report = StreamScheduler(pipeline=VaddPipeline()).run(
                stream, checkpoint=StreamCheckpoint(path, every=1))
        assert report.n_windows == 2
        assert StreamCheckpoint(path).load().complete


# -- campaigns ----------------------------------------------------------------


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign_report(self) -> CampaignReport:
        trace = respiration_signal(3 * CHAOS_WINDOW)
        campaign = FaultCampaign(
            kinds=("spm_bitflip", "chunk_corrupt", "worker_kill"),
            rates=(0.6,), persists=(1,), seed=5, workers=2,
            max_retries=2, pipeline=VaddPipeline(),
        )
        return campaign.run(trace, window=CHAOS_WINDOW)

    def test_recoverable_cells_honor_the_contract(self, campaign_report):
        assert campaign_report.ok
        assert len(campaign_report.cells) == 3
        for cell in campaign_report.cells:
            assert cell.recoverable
            assert cell.n_quarantined == 0
            assert cell.n_served == campaign_report.n_windows
            assert cell.bit_identical and cell.mismatch is None
        assert multiprocessing.active_children() == []

    def test_report_serializes_and_summarizes(self, campaign_report):
        import json

        payload = json.loads(campaign_report.to_json())
        assert payload["ok"] is True
        assert len(payload["cells"]) == 3
        assert all(cell["ok"] for cell in payload["cells"])
        summary = campaign_report.summary()
        assert "all cells honored the resilience contract" in summary
        assert "worker_kill" in summary

    def test_unrecoverable_cell_accounts_every_window(self):
        trace = respiration_signal(2 * CHAOS_WINDOW)
        campaign = FaultCampaign(
            kinds=("spm_stuck",), rates=(0.9,), persists=(99,), seed=2,
            workers=1, max_retries=1, pipeline=VaddPipeline(),
        )
        report = campaign.run(trace, window=CHAOS_WINDOW)
        (cell,) = report.cells
        assert not cell.recoverable
        assert cell.n_faults >= 1
        assert cell.n_served + cell.n_quarantined == cell.n_windows
        assert cell.n_quarantined >= 1
        assert cell.bit_identical  # the served remainder still matches
        assert cell.ok and report.ok

    def test_recoverability_ladder_arithmetic(self):
        campaign = FaultCampaign(
            max_retries=2, reference_fallback=True,
            pipeline=VaddPipeline(),
        )
        assert campaign.recoverable(1)
        assert campaign.recoverable(2)
        assert campaign.recoverable(3)  # the reference attempt is clean
        assert not campaign.recoverable(4)
        bare = FaultCampaign(
            max_retries=2, reference_fallback=False,
            pipeline=VaddPipeline(),
        )
        assert not bare.recoverable(3)
        hardened = FaultCampaign(
            max_retries=0, compiled_only=True, pipeline=VaddPipeline(),
        )
        assert hardened.recoverable(99)  # reference dodges compiled_only

    def test_campaign_validates_its_grid(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultCampaign(kinds=("cosmic_ray",))
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultCampaign(rates=())
        with pytest.raises(ConfigurationError, match="no windows"):
            FaultCampaign(pipeline=VaddPipeline()).run(
                [0] * 4, window=CHAOS_WINDOW)
