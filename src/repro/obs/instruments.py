"""What the serving stack publishes on the bus, and from where.

This module owns the **metric name registry** — every counter, gauge
and histogram the instrumentation emits, with its unit and the call
site that emits it (rendered as ``# HELP`` lines by the exporter and
tabulated in docs/observability.md) — plus the record helpers the
instrumented code calls. Call sites stay one line::

    bus = get_bus()
    if bus is not None:
        record_window(bus, result, stats_delta)

Everything here is host-side bookkeeping over values the simulation
already produced (:class:`~repro.serve.WindowResult`,
:class:`~repro.core.RunResult`, store-stats deltas); nothing feeds back
into simulated state, so the instrumented and uninstrumented runs are
bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.bus import get_bus  # noqa: F401  (re-exported convenience)


@dataclass(frozen=True)
class Metric:
    """One registered metric family."""

    name: str    #: Prometheus-style family name
    kind: str    #: counter | gauge | histogram
    unit: str    #: unit of the value ("1" for dimensionless counts)
    help: str    #: one-line meaning (the exporter's # HELP text)
    source: str  #: the call site that emits it


def _m(name, kind, unit, help, source):  # noqa: A002 - Prometheus term
    return Metric(name, kind, unit, help, source)


#: The registry: every metric the stack emits. ``tests/test_obs.py``
#: checks that docs/observability.md's table lists exactly these names
#: and that a pooled instrumented run emits no family missing from it.
METRICS = (
    # -- serving (the WindowLedger every scheduler drives) -------------------
    _m("repro_windows_served_total", "counter", "windows",
       "Windows whose WindowResult was accepted into the report",
       "serve/ledger.py WindowLedger.accept()"),
    _m("repro_windows_failed_total", "counter", "windows",
       "Windows quarantined after exhausting the retry ladder",
       "serve/ledger.py WindowLedger quarantine verdict"),
    _m("repro_window_cycles_total", "counter", "cycles",
       "Simulated platform cycles, summed over served windows",
       "record_window() from WindowResult.cycles"),
    _m("repro_window_cycles", "histogram", "cycles",
       "Per-window simulated-cycle distribution",
       "record_window() from WindowResult.cycles"),
    _m("repro_staging_cycles_total", "counter", "cycles",
       "Staging DMA cycles by direction label (in|out)",
       "record_window() from WindowResult.staging_*_cycles"),
    _m("repro_launches_total", "counter", "launches",
       "Kernel launches by executing engine label",
       "record_window() from RunResult.engine per launch"),
    _m("repro_engine_fallbacks_total", "counter", "launches",
       "Reference-engine fallbacks by kernel label",
       "record_window() from RunResult.fallback_reason"),
    _m("repro_superblock_loops_total", "counter", "loops",
       "Accelerated loop executions by tier label (closed_form)",
       "record_window() from RunResult.superblocks"),
    _m("repro_superblock_trips_total", "counter", "trips",
       "Loop trips covered without per-trip dispatch",
       "record_window() from RunResult.superblocks"),
    _m("repro_energy_uj_total", "counter", "uJ",
       "Modeled energy summed over served windows",
       "record_window() from WindowResult.energy_uj"),
    _m("repro_window_energy_uj", "histogram", "uJ",
       "Per-window modeled-energy distribution",
       "record_window() from WindowResult.energy_uj"),
    _m("repro_kernel_energy_pj_total", "counter", "pJ",
       "Datapath energy by kernel label (every launch's event delta)",
       "record_window() from WindowResult.kernel_energy_pj"),
    _m("repro_config_store_total", "counter", "events",
       "Config-store cache counters by event label "
       "(stores|dedup_hits|encode_hits|encode_misses|hazard_hits|"
       "hazard_misses|analysis_hits|analysis_misses)",
       "record_store_stats() from StoreStats.since deltas"),
    _m("repro_resilience_total", "counter", "events",
       "Resilience counters by event label (retries, respawns, "
       "fault:<kind>, ... — the StreamReport.resilience vocabulary)",
       "record_resilience() from WindowLedger.tally()"),
    # -- stream progress -----------------------------------------------------
    _m("repro_stream_windows", "gauge", "windows",
       "Windows in the stream being served",
       "record_progress() from WindowLedger.progress()"),
    _m("repro_stream_done", "gauge", "windows",
       "Windows accounted so far (served + quarantined)",
       "record_progress() from WindowLedger.progress()"),
    _m("repro_stream_windows_per_second", "gauge", "windows/s",
       "Serving throughput over the session so far",
       "record_progress() from WindowLedger.progress()"),
    # -- pool ----------------------------------------------------------------
    _m("repro_pool_workers_alive", "gauge", "workers",
       "Live pool worker processes",
       "serve/pool.py _PoolTransport.publish() each supervision round"),
    _m("repro_pool_queue_depth", "gauge", "windows",
       "Dispatched-but-unfinished windows by worker label",
       "serve/pool.py _PoolTransport.publish() each supervision round"),
    _m("repro_pool_worker_windows_total", "counter", "windows",
       "Windows served by worker label",
       "serve/ledger.py WindowLedger.accept() worker label"),
    # -- fleet transport (serve/net/server.py _FleetTransport) ---------------
    _m("repro_net_workers_connected", "gauge", "workers",
       "Registered fleet workers currently connected and ready",
       "serve/net/server.py _FleetTransport.publish() each round"),
    _m("repro_net_inflight_windows", "gauge", "windows",
       "Windows dispatched to fleet workers and not yet resolved",
       "serve/net/server.py _FleetTransport.publish() each round"),
    _m("repro_net_frames_total", "counter", "frames",
       "Frames moved over the fleet transport by direction label "
       "(in|out)",
       "serve/net/server.py _FleetTransport.read()/frame()"),
    _m("repro_net_retries_total", "counter", "retries",
       "Fleet retry-ladder rungs spent, by reason label "
       "(deadline|disconnect|desync|heartbeat|fault)",
       "serve/net/server.py _FleetTransport.retried() on retry verdicts"),
    # -- checkpointing -------------------------------------------------------
    _m("repro_checkpoint_lag_windows", "gauge", "windows",
       "Windows completed since the last checkpoint flush",
       "serve/checkpoint.py StreamCheckpoint.mark/save"),
    _m("repro_checkpoint_saves_total", "counter", "saves",
       "Checkpoint flushes to disk",
       "serve/checkpoint.py StreamCheckpoint.save"),
    # -- fault campaigns -----------------------------------------------------
    _m("repro_campaign_cells", "gauge", "cells",
       "Cells in the running fault campaign grid",
       "faults/campaign.py FaultCampaign.run"),
    _m("repro_campaign_cells_done", "gauge", "cells",
       "Campaign cells completed so far",
       "faults/campaign.py FaultCampaign.run"),
    _m("repro_campaign_cells_total", "counter", "cells",
       "Completed campaign cells by verdict label (ok|broken)",
       "faults/campaign.py FaultCampaign.run"),
    # -- bench trend ---------------------------------------------------------
    _m("repro_bench_guarded_metric", "gauge", "ratio",
       "Guarded benchmark metrics by metric and side label "
       "(committed|regenerated)",
       "benchmarks/bench_trend.py publish_rows()"),
    _m("repro_bench_regression", "gauge", "fraction",
       "Relative drop of each guarded metric (negative = improved)",
       "benchmarks/bench_trend.py publish_rows()"),
)

#: name -> Metric, for the exporter's HELP lines and the registry test.
REGISTRY = {metric.name: metric for metric in METRICS}

#: Bucket bounds tuned for the registered histograms; pass to
#: :class:`~repro.obs.MetricsBus` (``default_bus()`` does).
BUCKETS = {
    # MBioTracker windows run ~1-40M simulated cycles depending on
    # platform config; resolve that range.
    "repro_window_cycles": (
        100_000.0, 250_000.0, 500_000.0, 1_000_000.0, 2_500_000.0,
        5_000_000.0, 10_000_000.0, 25_000_000.0, 50_000_000.0,
        100_000_000.0,
    ),
    # Per-window energies sit in the tens-of-µJ range at the paper's
    # design point.
    "repro_window_energy_uj": (
        1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0,
    ),
}


def default_bus():
    """A :class:`~repro.obs.MetricsBus` with the registry's buckets."""
    from repro.obs.bus import MetricsBus

    return MetricsBus(buckets=BUCKETS)


# -- record helpers -----------------------------------------------------------


def record_window(bus, result, stats_delta: dict = None,
                  worker: str = None) -> None:
    """Publish one accepted :class:`~repro.serve.WindowResult`.

    Counters cover exactly what the report aggregates — cycles, staging
    split, per-engine launch tallies, fallback reasons,
    superblock counters, energy — so bus totals and the merged
    :class:`~repro.serve.StreamReport` agree counter-for-counter
    (``tests/test_obs.py`` asserts it over a pooled run). ``worker``
    labels the per-worker tally when a pool served the window.
    """
    bus.inc("repro_windows_served_total")
    bus.inc("repro_window_cycles_total", result.cycles)
    bus.observe("repro_window_cycles", result.cycles)
    bus.inc("repro_staging_cycles_total", result.staging_in_cycles,
            direction="in")
    bus.inc("repro_staging_cycles_total", result.staging_out_cycles,
            direction="out")
    for launch in result.launches:
        bus.inc("repro_launches_total", engine=launch.engine)
        if launch.fallback_reason:
            bus.inc("repro_engine_fallbacks_total", kernel=launch.name)
        if launch.superblocks:
            for key, value in launch.superblocks.items():
                if key == "accelerated_loops":
                    bus.inc("repro_superblock_loops_total", value,
                            tier="closed_form")
                elif key == "accelerated_trips":
                    bus.inc("repro_superblock_trips_total", value)
    if result.energy_uj is not None:
        bus.inc("repro_energy_uj_total", result.energy_uj)
        bus.observe("repro_window_energy_uj", result.energy_uj)
    if result.kernel_energy_pj:
        for kernel, pj in result.kernel_energy_pj.items():
            bus.inc("repro_kernel_energy_pj_total", pj, kernel=kernel)
    if stats_delta:
        record_store_stats(bus, stats_delta)
    if worker is not None:
        bus.inc("repro_pool_worker_windows_total", worker=str(worker))


def record_store_stats(bus, stats) -> None:
    """Publish config-store cache counters.

    ``stats`` is either a delta dict (the
    :meth:`~repro.core.config_mem.StoreStats.since` shape the serving
    layer threads around) or a live
    :class:`~repro.core.config_mem.StoreStats`, read via its public
    :meth:`~repro.core.config_mem.StoreStats.as_dict`.
    """
    if hasattr(stats, "as_dict"):
        stats = stats.as_dict()
    for event, count in stats.items():
        if count:
            bus.inc("repro_config_store_total", count, event=event)


def record_resilience(bus, delta: dict) -> None:
    """Publish a resilience counter delta (the StreamReport vocabulary)."""
    for event, count in delta.items():
        if count:
            bus.inc("repro_resilience_total", count, event=event)


def record_failed(bus, n: int = 1) -> None:
    """Publish quarantined windows."""
    bus.inc("repro_windows_failed_total", n)


def record_progress(bus, done: int, total: int,
                    wall_seconds: float) -> None:
    """Publish stream progress gauges, including live windows/s."""
    bus.set_gauge("repro_stream_windows", total)
    bus.set_gauge("repro_stream_done", done)
    if wall_seconds > 0:
        bus.set_gauge(
            "repro_stream_windows_per_second", done / wall_seconds
        )


def record_pool_state(bus, in_flight: dict, alive: int) -> None:
    """Publish per-worker queue depths and the live-worker gauge."""
    bus.set_gauge("repro_pool_workers_alive", alive)
    for wid, entries in in_flight.items():
        bus.set_gauge(
            "repro_pool_queue_depth", len(entries), worker=str(wid)
        )


def record_worker_retired(bus, wid) -> None:
    """Drop a retired worker's queue-depth gauge (it no longer exists)."""
    bus.drop_gauge("repro_pool_queue_depth", worker=str(wid))


def record_net_state(bus, connected: int, in_flight: int) -> None:
    """Publish the fleet transport gauges (one per supervision tick)."""
    bus.set_gauge("repro_net_workers_connected", connected)
    bus.set_gauge("repro_net_inflight_windows", in_flight)


def record_net_frames(bus, direction: str, n: int = 1) -> None:
    """Publish frames moved over the transport (``in`` or ``out``)."""
    bus.inc("repro_net_frames_total", n, direction=direction)


def record_net_retry(bus, reason: str, n: int = 1) -> None:
    """Publish fleet retry-ladder rungs spent, labeled by why."""
    bus.inc("repro_net_retries_total", n, reason=reason)
