"""Chaos campaigns: sweep fault kinds × rates, prove the stack survives.

A :class:`FaultCampaign` is the proof harness on top of the injection
(:mod:`repro.faults.plan`/:mod:`repro.faults.injector`) and resilience
(:class:`~repro.serve.PoolScheduler` supervision, retry ladders,
quarantine) layers. For every cell of a ``kinds × rates × persists``
grid it generates a seeded :class:`FaultPlan`, serves the same trace
through the self-healing pool, and checks the resilience contract of
docs/robustness.md:

* **recoverable cells** (the fault persists fewer attempts than the
  retry ladder is long) must quarantine *nothing* and produce served
  windows bit-identical to an uninjected baseline run — recovery is
  invisible in the simulated results, visible only in the resilience
  counters;
* **unrecoverable cells** must account every window explicitly: served
  windows stay bit-identical, the rest land in
  :attr:`~repro.serve.StreamReport.failed_windows` with their fault
  pedigree — never a crash, never a silent gap.

The module doubles as the CI smoke job::

    python -m repro.faults.campaign --windows 4 --rates 0.5 \
        --kinds spm_bitflip,chunk_corrupt,worker_kill --json report.json

which exits non-zero when any cell breaks the contract.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict, dataclass, field

from repro.core.errors import ConfigurationError
from repro.faults.plan import FAULT_KINDS, NET_FAULTS, FaultPlan
from repro.obs.bus import get_bus

#: Default sweep: one representative of every fault layer.
DEFAULT_KINDS = (
    "spm_bitflip", "spm_stuck", "brownout", "chunk_corrupt",
    "chunk_truncate", "worker_kill",
)


@dataclass(frozen=True)
class CampaignCell:
    """Outcome of one ``(kind, rate, persist)`` cell of the sweep."""

    kind: str          #: fault kind injected in this cell
    rate: float        #: per-window injection probability
    persist: int       #: attempts each fault keeps firing
    seed: int          #: the cell's plan-generation seed
    recoverable: bool  #: expectation: the retry ladder out-lives the fault
    n_faults: int      #: faults the generated plan scheduled
    n_windows: int     #: windows in the stream
    n_served: int      #: windows that produced results
    n_quarantined: int  #: windows quarantined after exhausting retries
    bit_identical: bool  #: served windows match the uninjected baseline
    mismatch: str      #: first difference when they do not (else None)
    resilience: dict   #: the run's resilience counters
    wall_seconds: float  #: host wall clock of the injected run
    #: which executor served the cell: ``"pool"`` (in-process worker
    #: pool) or ``"fleet"`` (TCP loopback fleet — the ``net_*`` kinds).
    transport: str = "pool"

    @property
    def ok(self) -> bool:
        """Whether the cell honored the resilience contract.

        Served windows must be bit-identical to the baseline, every
        window must be accounted for (served or quarantined), and a
        recoverable cell must quarantine nothing.
        """
        if not self.bit_identical:
            return False
        if self.n_served + self.n_quarantined != self.n_windows:
            return False
        if self.recoverable and self.n_quarantined:
            return False
        return True


@dataclass
class CampaignReport:
    """Every cell of one campaign, plus the shared sweep parameters."""

    config: str
    seed: int
    n_windows: int
    workers: int
    max_retries: int
    reference_fallback: bool
    cells: list = field(default_factory=list)
    baseline_wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Every cell honored the contract (and there was at least one)."""
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list:
        return [cell for cell in self.cells if not cell.ok]

    def to_json(self, indent: int = 2) -> str:
        """The whole report as JSON (the CI artifact format)."""
        return json.dumps(
            {
                "config": self.config,
                "seed": self.seed,
                "n_windows": self.n_windows,
                "workers": self.workers,
                "max_retries": self.max_retries,
                "reference_fallback": self.reference_fallback,
                "baseline_wall_seconds": self.baseline_wall_seconds,
                "ok": self.ok,
                "net": self.net_section(),
                "cells": [
                    dict(asdict(cell), ok=cell.ok) for cell in self.cells
                ],
            },
            indent=indent,
        )

    def net_section(self) -> dict:
        """The network-chaos slice of the report (the ``--net`` cells)."""
        net_cells = [c for c in self.cells if c.transport == "fleet"]
        return {
            "swept": bool(net_cells),
            "cells": len(net_cells),
            "kinds": sorted({c.kind for c in net_cells}),
            "ok": all(c.ok for c in net_cells) if net_cells else True,
        }

    def summary(self) -> str:
        """Human-readable digest, one line per cell."""
        lines = [
            f"fault campaign: {len(self.cells)} cells over "
            f"{self.n_windows} windows under {self.config!r} "
            f"(workers={self.workers}, max_retries={self.max_retries}, "
            f"reference_fallback={self.reference_fallback}, "
            f"seed={self.seed})"
        ]
        for cell in self.cells:
            verdict = "ok" if cell.ok else "CONTRACT BROKEN"
            detail = ""
            if not cell.bit_identical:
                detail = f" [{cell.mismatch}]"
            over = (
                f" over {cell.transport}" if cell.transport != "pool"
                else ""
            )
            lines.append(
                f"  {cell.kind} @ rate={cell.rate} persist={cell.persist}"
                f"{over} "
                f"({'recoverable' if cell.recoverable else 'unrecoverable'}"
                f", {cell.n_faults} faults): {cell.n_served} served, "
                f"{cell.n_quarantined} quarantined — {verdict}{detail}"
            )
        lines.append(
            "  verdict: "
            + ("all cells honored the resilience contract" if self.ok
               else f"{len(self.failures)} cells broke the contract")
        )
        return "\n".join(lines)


class FaultCampaign:
    """Sweeps fault kinds × rates × persistence over the serving stack.

    ``kinds``/``rates``/``persists`` span the grid; every cell draws its
    own :class:`FaultPlan` from a seed derived deterministically from
    ``seed``, so a campaign is exactly reproducible. ``workers`` sizes
    the :class:`~repro.serve.PoolScheduler` each cell runs on
    (``workers=1`` still supervises one worker process — process faults
    need an expendable worker). ``respawn_limit=None`` (default) sizes
    the respawn budget per cell from the plan's own process-fault count;
    ``heartbeat_timeout`` defaults to 5 seconds when the grid includes
    ``worker_hang``.
    """

    def __init__(self, config: str = "cpu_vwr2a", kinds=None,
                 rates=(0.25,), persists=(1,), seed: int = 0,
                 workers: int = 2, max_retries: int = 2,
                 reference_fallback: bool = True, respawn_limit=None,
                 heartbeat_timeout: float = None, params=None,
                 pipeline=None, energy_model=None,
                 compiled_only: bool = False,
                 task_deadline: float = None) -> None:
        kinds = tuple(kinds) if kinds is not None else DEFAULT_KINDS
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} "
                    f"(choose from {FAULT_KINDS})"
                )
        if not kinds or not tuple(rates) or not tuple(persists):
            raise ConfigurationError(
                "a campaign needs at least one kind, rate and persist"
            )
        self.config = config
        self.kinds = kinds
        self.rates = tuple(rates)
        self.persists = tuple(persists)
        self.seed = seed
        self.workers = workers
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.respawn_limit = respawn_limit
        if heartbeat_timeout is None and "worker_hang" in kinds:
            heartbeat_timeout = 5.0
        self.heartbeat_timeout = heartbeat_timeout
        self.params = params
        self.pipeline = pipeline
        self.energy_model = energy_model
        self.compiled_only = compiled_only
        #: Per-task deadline for the fleet cells (``net_*`` kinds);
        #: defaults to 3 seconds when such a cell runs.
        self.task_deadline = task_deadline

    def recoverable(self, persist: int, kind: str = None) -> bool:
        """Whether the retry ladder out-lives a fault of ``persist``.

        Attempts ``0 .. max_retries`` run on the primary engine; the
        reference attempt (number ``max_retries + 1``) is clean when the
        fault either stopped persisting or is ``compiled_only`` (the
        damage the reference engine exists to route around). Network
        faults fire per frame *transmission* — one per ladder rung — so
        the same arithmetic applies, except ``compiled_only`` buys them
        nothing (the framing layer has no engines).
        """
        if persist <= self.max_retries:
            return True
        if not self.reference_fallback:
            return False
        if kind is not None and kind in NET_FAULTS:
            return persist <= self.max_retries + 1
        return self.compiled_only or persist <= self.max_retries + 1

    def run(self, trace, window: int = None, hop: int = None,
            tail: str = "drop") -> CampaignReport:
        """Serve ``trace`` once uninjected, then once per grid cell."""
        from repro.serve import StreamScheduler, WindowStream

        if window is None:
            from repro.app.mbiotracker import WINDOW

            window = WINDOW
        stream = WindowStream(trace, window=window, hop=hop, tail=tail)
        if not stream.n_windows:
            raise ConfigurationError(
                "the campaign trace yields no windows — nothing to prove"
            )
        base_start = time.perf_counter()
        baseline = StreamScheduler(
            config=self.config, params=self.params,
            pipeline=self.pipeline, energy_model=self.energy_model,
        ).run(stream)
        report = CampaignReport(
            config=self.config,
            seed=self.seed,
            n_windows=stream.n_windows,
            workers=self.workers,
            max_retries=self.max_retries,
            reference_fallback=self.reference_fallback,
            baseline_wall_seconds=time.perf_counter() - base_start,
        )
        n_cells = len(self.kinds) * len(self.rates) * len(self.persists)
        bus = get_bus()
        if bus is not None:
            bus.set_gauge("repro_campaign_cells", n_cells)
            bus.set_gauge("repro_campaign_cells_done", 0)
        cell_seed = self.seed
        for kind in self.kinds:
            for rate in self.rates:
                for persist in self.persists:
                    cell_seed += 1
                    cell = self._run_cell(
                        stream, baseline, kind, rate, persist, cell_seed,
                    )
                    report.cells.append(cell)
                    bus = get_bus()
                    if bus is not None:
                        bus.set_gauge(
                            "repro_campaign_cells_done", len(report.cells)
                        )
                        bus.inc(
                            "repro_campaign_cells_total",
                            verdict="ok" if cell.ok else "broken",
                        )
        return report

    def _run_cell(self, stream, baseline, kind: str, rate: float,
                  persist: int, cell_seed: int) -> CampaignCell:
        plan = FaultPlan.generate(
            cell_seed, stream.n_windows, {kind: rate},
            window=stream.window, persist=persist,
            compiled_only=self.compiled_only,
        )
        transport = "fleet" if kind in NET_FAULTS else "pool"
        start = time.perf_counter()
        if transport == "fleet":
            injected = self._serve_fleet(stream, plan)
        else:
            injected = self._serve_pool(stream, plan)
        wall = time.perf_counter() - start
        mismatch = served_identical(injected, baseline)
        return CampaignCell(
            kind=kind,
            rate=rate,
            persist=persist,
            seed=cell_seed,
            recoverable=self.recoverable(persist, kind),
            n_faults=len(plan),
            n_windows=stream.n_windows,
            n_served=injected.n_windows,
            n_quarantined=injected.n_failed,
            bit_identical=mismatch is None,
            mismatch=mismatch,
            resilience=dict(injected.resilience),
            wall_seconds=wall,
            transport=transport,
        )

    def _serve_pool(self, stream, plan):
        """Serve one cell through the self-healing process pool."""
        from repro.serve import PoolScheduler

        respawn_limit = self.respawn_limit
        if respawn_limit is None:
            # Every scheduled process fault can take a worker with it up
            # to once per persisting attempt; +1 spare for slop.
            respawn_limit = sum(
                min(spec.persist, self.max_retries + 2)
                for spec in plan.specs
                if spec.kind in ("worker_kill", "worker_hang")
            ) + 1
        return PoolScheduler(
            config=self.config,
            workers=self.workers,
            params=self.params,
            pipeline=self.pipeline,
            energy_model=self.energy_model,
            fault_plan=plan,
            max_retries=self.max_retries,
            reference_fallback=self.reference_fallback,
            respawn_limit=respawn_limit,
            heartbeat_timeout=self.heartbeat_timeout,
        ).run(stream)

    def _serve_fleet(self, stream, plan):
        """Serve one ``net_*`` cell: a loopback TCP fleet, not the pool.

        The server injects task-side faults through its own
        :class:`~repro.serve.net.framing.NetGate`; result-side specs
        ride to the workers with the spec frame. Worker processes are
        expendable (daemonized, terminated on exit) — the resilience
        story is the server's to prove.
        """
        from repro.serve.net import FleetServer, reap, spawn_workers

        server = FleetServer(
            config=self.config,
            params=self.params,
            pipeline=self.pipeline,
            energy_model=self.energy_model,
            fault_plan=plan,
            max_retries=self.max_retries,
            reference_fallback=self.reference_fallback,
            task_deadline=self.task_deadline or 3.0,
            heartbeat_timeout=self.heartbeat_timeout or 10.0,
            register_timeout=60.0,
            local_fallback=False,
        )
        host, port = server.bind()
        procs = spawn_workers(host, port, self.workers)
        try:
            return server.run(stream)
        finally:
            server.close()
            reap(procs)


def served_identical(report, baseline) -> str:
    """First difference between served windows and their baseline twins.

    Quarantined windows are absent from ``report`` by design, so the
    baseline is narrowed to the indices ``report`` actually served
    before the bit-identity comparison. Engine decisions are excluded —
    a reference-fallback recovery honestly records a different engine
    while producing identical simulated results. Returns ``None`` when
    every served window matches.
    """
    from repro.serve import StreamReport

    indices = {w.index for w in report.windows}
    subset = StreamReport(
        config=baseline.config,
        engine=baseline.engine,
        window=baseline.window,
        hop=baseline.hop,
    )
    for window in baseline.windows:
        if window.index in indices:
            subset.add_window(window)
    return report.identical_to(subset, engines=False)


# -- CLI (the CI smoke job) ---------------------------------------------------


def main(argv=None) -> int:
    """Run a seeded campaign on synthetic respiration; 0 iff contract held."""
    parser = argparse.ArgumentParser(
        description=(
            "Seeded fault-injection campaign over the serving stack "
            "(see docs/robustness.md)."
        )
    )
    parser.add_argument(
        "--windows", type=int, default=4,
        help="stream length in application windows (default 4)",
    )
    parser.add_argument(
        "--kinds", default=",".join(DEFAULT_KINDS),
        help="comma-separated fault kinds to sweep",
    )
    parser.add_argument(
        "--net", action="store_true",
        help=(
            "sweep the network fault family over a loopback TCP fleet "
            "instead of the default kinds (overrides --kinds)"
        ),
    )
    parser.add_argument(
        "--rates", default="0.5",
        help="comma-separated per-window injection rates",
    )
    parser.add_argument(
        "--persists", default="1",
        help="comma-separated persistence values (attempts per fault)",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument(
        "--no-reference", action="store_true",
        help="disable the reference-engine fallback attempt",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None,
        help="hang-detection timeout in seconds",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    args = parser.parse_args(argv)

    from repro.app.mbiotracker import WINDOW
    from repro.app.signals import respiration_signal

    kinds = tuple(k for k in args.kinds.split(",") if k)
    if args.net:
        kinds = NET_FAULTS
    campaign = FaultCampaign(
        kinds=kinds,
        rates=tuple(float(r) for r in args.rates.split(",") if r),
        persists=tuple(int(p) for p in args.persists.split(",") if p),
        seed=args.seed,
        workers=args.workers,
        max_retries=args.retries,
        reference_fallback=not args.no_reference,
        heartbeat_timeout=args.heartbeat,
    )
    trace = respiration_signal(args.windows * WINDOW)
    report = campaign.run(trace)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
