"""Deterministic, seeded fault schedules.

A :class:`FaultPlan` is the *score* of a chaos experiment: a tuple of
:class:`FaultSpec` records, each pinning one fault — what kind, which
window it strikes, where exactly (SPM address/bit, power domain, chunk
offset, kernel-launch boundary) and how long it persists across retry
attempts. Plans are frozen dataclasses of plain values, so they pickle
into pool workers unchanged, and two runs with the same plan inject the
same faults in the same places regardless of worker count or sharding —
the property every differential in ``tests/test_faults.py`` rests on.

``persist`` is the recoverability dial: a fault fires on attempts
``0 .. persist-1`` of its window, so ``persist=1`` models a transient
upset (the first retry is clean) and ``persist`` beyond the retry budget
models a hard fault that ends in quarantine. ``compiled_only`` faults
spare reference-engine attempts — they model damage to the compiled fast
path, the case the reference-fallback retry tier exists for.

:meth:`FaultPlan.generate` draws a plan from a seed and per-kind rates;
:class:`~repro.faults.FaultCampaign` sweeps those rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import ConfigurationError

#: Every fault kind a plan may schedule, by the layer it strikes.
SPM_FAULTS = ("spm_bitflip", "spm_stuck")
POWER_FAULTS = ("brownout",)
CHUNK_FAULTS = ("chunk_corrupt", "chunk_truncate")
PROCESS_FAULTS = ("worker_kill", "worker_hang")
#: Transport faults injected at the fleet framing layer
#: (:class:`repro.serve.net.framing.NetGate`), never inside a platform.
NET_FAULTS = (
    "net_drop",        # the frame silently vanishes
    "net_delay",       # the frame arrives late (deadline pressure)
    "net_dup",         # the frame arrives twice (dedup pressure)
    "net_disconnect",  # the sender closes right after the frame
    "net_corrupt",     # a body byte is flipped (checksum pressure)
    "net_truncate",    # a partial frame, then the connection closes
    "net_slow",        # slow-loris: the frame dribbles out in crumbs
)
FAULT_KINDS = (
    SPM_FAULTS + POWER_FAULTS + CHUNK_FAULTS + PROCESS_FAULTS + NET_FAULTS
)

#: Which transport direction each network fault strikes: ``"task"``
#: frames (server -> worker) or ``"result"`` frames (worker -> server).
#: The split keeps each kind's failure signature distinct — task-side
#: kinds exercise the server's deadline/requeue machinery, result-side
#: kinds exercise checksum detection and desync recovery.
NET_FAULT_SIDES = {
    "net_drop": "task",
    "net_delay": "task",
    "net_dup": "task",
    "net_disconnect": "task",
    "net_corrupt": "result",
    "net_truncate": "result",
    "net_slow": "result",
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault. Only the fields of its kind are meaningful."""

    kind: str           #: one of :data:`FAULT_KINDS`
    window: int         #: stream window index the fault strikes
    persist: int = 1    #: attempts 0..persist-1 of that window are faulted
    #: Fault only fires on non-reference attempts: it damages the
    #: compiled fast path, and the reference interpreter is the golden
    #: recovery engine (the PR-2 abort-replay story at window scale).
    compiled_only: bool = False
    # spm_bitflip / spm_stuck
    addr: int = 0       #: SPM word address
    bit: int = 0        #: bit to flip (spm_bitflip)
    value: int = 0      #: forced word value (spm_stuck)
    at_launch: int = 0  #: 0-based kernel launch of the window to strike at
    # brownout
    domain: str = "accelerators"  #: Domain value to gate
    after_cycles: int = 1000      #: fuse length from the attempt's start
    # chunk_corrupt / chunk_truncate — and, for net_corrupt /
    # net_truncate, reinterpreted at the framing layer: ``offset`` is a
    # byte offset into the frame body, ``xor_mask`` the flipped bits,
    # ``keep`` the bytes sent before the connection closes (0 = half).
    offset: int = 0     #: sample offset within the window (corrupt)
    xor_mask: int = 1   #: corruption mask (corrupt)
    keep: int = 0       #: samples that survive the short read (truncate)
    # net_delay / net_slow
    delay_ms: int = 100   #: added transit latency for the frame
    chunk_bytes: int = 7  #: slow-loris dribble size (net_slow)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {FAULT_KINDS})"
            )
        if self.window < 0:
            raise ConfigurationError(
                f"fault window must be >= 0, got {self.window}"
            )
        if self.persist < 1:
            raise ConfigurationError(
                f"fault persist must be >= 1 attempt, got {self.persist}"
            )

    def fires(self, attempt: int, engine: str) -> bool:
        """Whether this fault strikes the given attempt."""
        if attempt >= self.persist:
            return False
        if self.compiled_only and engine == "reference":
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults over one window stream."""

    specs: tuple = ()
    seed: int = None  #: generation seed, for report provenance (optional)

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def for_window(self, index: int) -> tuple:
        """Every spec scheduled for window ``index`` (stable order)."""
        return tuple(s for s in self.specs if s.window == index)

    def counts(self) -> dict:
        """Scheduled fault tally by kind (for campaign accounting)."""
        tally = {}
        for spec in self.specs:
            tally[spec.kind] = tally.get(spec.kind, 0) + 1
        return tally

    @property
    def has_process_faults(self) -> bool:
        return any(s.kind in PROCESS_FAULTS for s in self.specs)

    def net_specs(self, side: str = None) -> tuple:
        """The transport specs — optionally only one direction's.

        ``side`` is ``"task"`` or ``"result"`` per
        :data:`NET_FAULT_SIDES`; the fleet server arms the task-side
        specs on its own gate and ships the result-side specs to the
        workers inside the worker spec.
        """
        return tuple(
            s for s in self.specs if s.kind in NET_FAULTS
            and (side is None or NET_FAULT_SIDES[s.kind] == side)
        )

    def without_net(self) -> "FaultPlan":
        """This plan minus transport specs — what platforms should see.

        Network faults strike frames, not simulated hardware; the fleet
        hands workers (and its local degradation path) this projection
        so the platform-side injector never sees a kind it cannot arm.
        """
        return FaultPlan(
            specs=tuple(
                s for s in self.specs if s.kind not in NET_FAULTS
            ),
            seed=self.seed,
        )

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        mix = ", ".join(
            f"{kind}: {n}" for kind, n in sorted(self.counts().items())
        )
        return f"FaultPlan(seed={self.seed}, {len(self.specs)} faults" + (
            f" [{mix}])" if mix else ")"
        )

    # -- seeded generation ---------------------------------------------------

    @classmethod
    def generate(cls, seed: int, n_windows: int, rates: dict,
                 window: int = 512, spm_words: int = None,
                 persist: int = 1, compiled_only: bool = False,
                 brownout_cycles: tuple = (500, 20_000),
                 max_launch: int = 4) -> "FaultPlan":
        """Draw a plan: each window suffers each kind with its rate.

        ``rates`` maps fault kind -> per-window probability. All
        randomness comes from ``random.Random(seed)``, so the same
        arguments always yield the same plan. ``persist``/
        ``compiled_only`` apply to every generated spec — campaigns
        sweep recoverable (``persist=1``) against unrecoverable
        (``persist`` beyond the retry budget) cells. ``spm_words``
        bounds generated SPM addresses (defaults to the stock
        architecture's SPM size); ``window`` bounds chunk offsets;
        ``max_launch`` bounds which kernel launch of a window SPM
        faults strike at.
        """
        for kind in rates:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} "
                    f"(choose from {FAULT_KINDS})"
                )
        if spm_words is None:
            from repro.arch import DEFAULT_PARAMS

            spm_words = DEFAULT_PARAMS.spm_lines * DEFAULT_PARAMS.line_words
        rng = random.Random(seed)
        specs = []
        for index in range(n_windows):
            for kind in sorted(rates):
                if rng.random() >= rates[kind]:
                    continue
                common = dict(
                    kind=kind, window=index, persist=persist,
                    compiled_only=compiled_only,
                )
                if kind == "spm_bitflip":
                    specs.append(FaultSpec(
                        addr=rng.randrange(spm_words),
                        bit=rng.randrange(32),
                        at_launch=rng.randrange(max_launch),
                        **common,
                    ))
                elif kind == "spm_stuck":
                    specs.append(FaultSpec(
                        addr=rng.randrange(spm_words),
                        value=rng.choice((0, -1, 0x5555_5555)),
                        at_launch=rng.randrange(max_launch),
                        **common,
                    ))
                elif kind == "brownout":
                    lo, hi = brownout_cycles
                    specs.append(FaultSpec(
                        after_cycles=rng.randrange(lo, hi), **common,
                    ))
                elif kind == "chunk_corrupt":
                    specs.append(FaultSpec(
                        offset=rng.randrange(window),
                        xor_mask=1 << rng.randrange(14),
                        **common,
                    ))
                elif kind == "chunk_truncate":
                    specs.append(FaultSpec(
                        keep=rng.randrange(window), **common,
                    ))
                elif kind == "net_delay":
                    specs.append(FaultSpec(
                        delay_ms=rng.randrange(50, 400), **common,
                    ))
                elif kind == "net_corrupt":
                    specs.append(FaultSpec(
                        offset=rng.randrange(256),
                        xor_mask=1 << rng.randrange(8),
                        **common,
                    ))
                elif kind == "net_truncate":
                    specs.append(FaultSpec(
                        keep=rng.randrange(4, 64), **common,
                    ))
                elif kind == "net_slow":
                    specs.append(FaultSpec(
                        chunk_bytes=rng.randrange(3, 17),
                        delay_ms=rng.randrange(100, 300),
                        **common,
                    ))
                else:  # worker_kill / worker_hang / net_drop / dup / disc
                    specs.append(FaultSpec(**common))
        return cls(specs=tuple(specs), seed=seed)
