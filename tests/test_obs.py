"""The observability layer: bus semantics, exposition format, overhead.

Four contracts (ISSUE 9 / docs/observability.md):

* **snapshot/delta semantics** — counters and histograms subtract
  across :meth:`~repro.obs.MetricsBus.since`, gauges pass through as
  levels, mirroring ``StoreStats.snapshot/since``;
* **Prometheus text format** — a golden test pins the exposition
  byte-for-byte (sorted families/series, HELP/TYPE from the registry,
  cumulative ``le`` buckets) and the parser round-trips it;
* **zero cost when off** — the disabled instrumentation path (the
  default) allocates nothing;
* **bus == report** — over a pooled run, bus totals equal the merged
  :class:`~repro.serve.StreamReport` counts bit-for-bit (integer
  counters exactly; float energy to within accumulation-order
  tolerance).
"""

from __future__ import annotations

import math
import re
import tracemalloc
from pathlib import Path

import pytest

from repro.app.mbiotracker import WINDOW
from repro.app.signals import respiration_signal
from repro.obs import (
    REGISTRY,
    MetricError,
    MetricsBus,
    MetricsExporter,
    MonitorModel,
    default_bus,
    get_bus,
    parse_prometheus,
    recording,
    render_prometheus,
    render_text,
    snapshot_samples,
    sparkline,
)
from repro.serve import serve_trace


# -- bus semantics ------------------------------------------------------------


def test_counter_snapshot_delta():
    bus = MetricsBus()
    bus.inc("requests_total")
    bus.inc("requests_total", 2.0, route="a")
    before = bus.snapshot()
    bus.inc("requests_total", 5.0)
    bus.inc("requests_total", route="b")
    delta = bus.since(before)
    assert delta.counter("requests_total") == 5.0
    assert delta.counter("requests_total", route="a") == 0.0
    assert delta.counter("requests_total", route="b") == 1.0
    # The snapshot itself is immutable history.
    assert before.counter("requests_total") == 1.0


def test_gauges_are_levels_not_deltas():
    bus = MetricsBus()
    bus.set_gauge("depth", 3, worker="0")
    before = bus.snapshot()
    bus.set_gauge("depth", 7, worker="0")
    # since() carries the current level — subtracting levels would
    # produce a meaningless "gauge delta".
    assert bus.since(before).gauge("depth", worker="0") == 7
    bus.drop_gauge("depth", worker="0")
    assert bus.snapshot().gauge("depth", worker="0") is None


def test_histogram_snapshot_delta():
    bus = MetricsBus(buckets={"lat": (1.0, 10.0, 100.0)})
    for value in (0.5, 5.0, 50.0):
        bus.observe("lat", value)
    before = bus.snapshot()
    bus.observe("lat", 500.0)
    bus.observe("lat", 5.0)
    delta = bus.since(before).histogram("lat")
    assert delta.counts == (0, 1, 0, 1)  # one in (1,10], one overflow
    assert delta.sum == 505.0
    assert delta.count == 2
    full = bus.snapshot().histogram("lat")
    assert full.counts == (1, 2, 1, 1)
    assert full.count == 5


def test_kind_clash_and_validation():
    bus = MetricsBus()
    bus.inc("n")
    with pytest.raises(MetricError):
        bus.set_gauge("n", 1.0)
    with pytest.raises(MetricError):
        bus.inc("bad name")
    with pytest.raises(MetricError):
        bus.inc("ok", **{"0bad": "v"})
    with pytest.raises(MetricError):
        bus.inc("n", -1.0)


def test_recording_installs_and_restores():
    assert get_bus() is None
    with recording() as bus:
        assert get_bus() is bus
        with recording() as inner:
            assert get_bus() is inner
        assert get_bus() is bus
    assert get_bus() is None


# -- Prometheus text format ---------------------------------------------------

#: Byte-for-byte golden exposition: sorted families and series,
#: HELP/TYPE headers from the registry, cumulative le buckets.
GOLDEN = """\
# HELP repro_pool_queue_depth Dispatched-but-unfinished windows by worker label [windows]
# TYPE repro_pool_queue_depth gauge
repro_pool_queue_depth{worker="0"} 2
repro_pool_queue_depth{worker="1"} 0
# HELP repro_window_cycles Per-window simulated-cycle distribution [cycles]
# TYPE repro_window_cycles histogram
repro_window_cycles_bucket{le="100"} 1
repro_window_cycles_bucket{le="1000"} 3
repro_window_cycles_bucket{le="+Inf"} 4
repro_window_cycles_sum 13050
repro_window_cycles_count 4
# HELP repro_windows_served_total Windows whose WindowResult was accepted into the report [windows]
# TYPE repro_windows_served_total counter
repro_windows_served_total 4
# HELP unregistered_total (unregistered metric)
# TYPE unregistered_total counter
unregistered_total{q="say \\"hi\\""} 1.5
"""


def golden_bus() -> MetricsBus:
    bus = MetricsBus(buckets={"repro_window_cycles": (100.0, 1000.0)})
    bus.inc("repro_windows_served_total", 4)
    bus.set_gauge("repro_pool_queue_depth", 2, worker="0")
    bus.set_gauge("repro_pool_queue_depth", 0, worker="1")
    for cycles in (50, 500, 500, 12_000):
        bus.observe("repro_window_cycles", cycles)
    bus.inc("unregistered_total", 1.5, q='say "hi"')
    return bus


def test_prometheus_golden():
    assert render_prometheus(golden_bus()) == GOLDEN


def test_prometheus_parse_roundtrip():
    samples = parse_prometheus(GOLDEN)
    assert samples[("repro_windows_served_total", ())] == 4.0
    assert samples[
        ("repro_pool_queue_depth", (("worker", "0"),))
    ] == 2.0
    assert samples[
        ("repro_window_cycles_bucket", (("le", "+Inf"),))
    ] == 4.0
    assert samples[("repro_window_cycles_sum", ())] == 13050.0
    assert samples[
        ("unregistered_total", (("q", 'say "hi"'),))
    ] == 1.5


def test_render_accepts_bus_and_snapshot_only():
    bus = golden_bus()
    assert render_prometheus(bus.snapshot()) == render_prometheus(bus)
    with pytest.raises(TypeError):
        render_prometheus({"not": "a bus"})


def test_exporter_serves_the_render():
    import urllib.request

    bus = golden_bus()
    with MetricsExporter(bus) as url:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            body = response.read().decode()
            content_type = response.headers["Content-Type"]
    assert body == render_prometheus(bus)
    assert "version=0.0.4" in content_type


# -- zero cost when off -------------------------------------------------------


def test_disabled_path_allocates_nothing():
    """The default (no bus installed) instrumentation path is free.

    Every call site guards on ``get_bus() is not None``; this pins that
    the guard itself — a module-global read plus an identity test —
    performs zero allocations, so leaving instrumentation in the hot
    loops costs nothing when observability is off.
    """
    assert get_bus() is None
    # Warm-up outside measurement (first-call caches, tracemalloc's own).
    for _ in range(10):
        if get_bus() is not None:  # pragma: no cover
            raise AssertionError
    # Pre-built iterator: the loop machinery itself must not count.
    iterations = iter([None] * 1000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base_current, _ = tracemalloc.get_traced_memory()
        for _ in iterations:
            bus = get_bus()
            if bus is not None:  # pragma: no cover
                bus.inc("never")
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - base_current == 0
    assert peak - base_current == 0


# -- bus totals == merged report, over a pooled run ---------------------------


@pytest.fixture(scope="module")
def pooled_run():
    trace = respiration_signal(4 * WINDOW)
    with recording(default_bus()) as bus:
        report = serve_trace(trace, workers=2)
    return bus.snapshot(), report


def test_pool_bus_matches_report_counts(pooled_run):
    """Integer bus totals equal the merged report's, bit-for-bit."""
    snap, report = pooled_run
    assert snap.counter("repro_windows_served_total") == report.n_windows
    assert snap.counter("repro_window_cycles_total") == report.total_cycles
    assert snap.counter("repro_windows_failed_total") == report.n_failed
    for engine, count in report.engine_counts.items():
        assert snap.counter("repro_launches_total", engine=engine) == count
    assert sum(
        snap.counter_family("repro_launches_total").values()
    ) == sum(report.engine_counts.values())
    assert snap.counter(
        "repro_staging_cycles_total", direction="in"
    ) == sum(w.staging_in_cycles for w in report.windows)
    assert snap.counter(
        "repro_staging_cycles_total", direction="out"
    ) == sum(w.staging_out_cycles for w in report.windows)
    for event, count in report.store_stats.items():
        if count:
            assert snap.counter(
                "repro_config_store_total", event=event
            ) == count
    # Per-worker tallies cover the stream exactly once.
    assert sum(
        snap.counter_family("repro_pool_worker_windows_total").values()
    ) == report.n_windows


def test_pool_bus_matches_report_energy(pooled_run):
    """Float energy totals agree to accumulation-order tolerance."""
    snap, report = pooled_run
    assert math.isclose(
        snap.counter("repro_energy_uj_total"),
        report.total_energy_uj,
        rel_tol=1e-9,
    )
    for kernel, pj in report.energy_by_kernel.items():
        assert math.isclose(
            snap.counter("repro_kernel_energy_pj_total", kernel=kernel),
            pj, rel_tol=1e-9,
        )
    hist = snap.histogram("repro_window_energy_uj")
    assert hist is not None and hist.count == report.n_windows


def test_pool_emits_only_registered_metrics(pooled_run):
    """Every family a pooled run emits is in the docs' registry."""
    snap, _ = pooled_run
    emitted = {key[0] for key in snap.counters}
    emitted |= {key[0] for key in snap.gauges}
    emitted |= {key[0] for key in snap.histograms}
    unregistered = emitted - set(REGISTRY)
    assert not unregistered, f"undocumented metrics: {sorted(unregistered)}"
    for name in emitted:
        assert snap.kinds[name] == REGISTRY[name].kind


def test_docs_table_lists_the_registry():
    """docs/observability.md's metric table holds exactly the registry:
    one row per family, with the family's kind."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    rows = re.findall(
        r"^\| `(repro_\w+)` \| (\w+) \|", doc.read_text(), re.MULTILINE
    )
    assert sorted(rows) == sorted(
        (metric.name, metric.kind) for metric in REGISTRY.values()
    )


def test_instrumented_run_is_bit_identical(pooled_run):
    """Observing a run does not perturb it: same stream served with the
    bus off merges to an identical report (engines included)."""
    _, observed = pooled_run
    assert get_bus() is None
    baseline = serve_trace(respiration_signal(4 * WINDOW), workers=2)
    assert baseline.identical_to(observed) is None


# -- monitor model / TUI ------------------------------------------------------


def test_monitor_model_and_text_dashboard(pooled_run):
    snap, report = pooled_run
    model = MonitorModel()
    model.ingest(snapshot_samples(snap), now=1.0)
    done, total = model.progress()
    assert (done, total) == (report.n_windows, report.n_windows)
    assert model.throughput() > 0
    workers = model.worker_rows()
    assert {row[0] for row in workers} == {"0", "1"}
    assert sum(row[1] for row in workers) == report.n_windows
    engines = dict(
        (engine, count) for engine, count, _ in model.engine_rows()
    )
    assert engines == report.engine_counts
    text = render_text(model)
    assert "windows/s" in text and "engines:" in text


def test_monitor_model_rates_and_trend():
    bus = MetricsBus()
    model = MonitorModel()
    for tick in range(1, 4):
        bus.inc("repro_windows_served_total")
        bus.inc("repro_energy_uj_total", float(tick))
        model.ingest_bus(bus, now=float(tick))
    # 2 windows over 2 seconds past the baseline tick.
    assert model._rate(("repro_windows_served_total", ())) == 1.0
    assert model.energy_per_window() == [2.0, 3.0]
    assert len(sparkline([1.0, 2.0, 3.0])) == 3


# -- StoreStats.as_dict (the satellite fix) -----------------------------------


def test_store_stats_as_dict():
    from repro.core.config_mem import StoreStats

    stats = StoreStats()
    stats.stores = 3
    stats.dedup_hits = 2
    as_dict = stats.as_dict()
    assert as_dict["stores"] == 3 and as_dict["dedup_hits"] == 2
    assert set(as_dict) == set(stats.snapshot())
    # record_store_stats accepts the live object through as_dict().
    bus = MetricsBus()
    from repro.obs.instruments import record_store_stats

    record_store_stats(bus, stats)
    assert bus.counter("repro_config_store_total", event="stores") == 3
