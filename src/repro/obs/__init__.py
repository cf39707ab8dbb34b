"""Live observability: metrics bus, Prometheus endpoint, monitoring TUI.

The layer that turns a running pool from a black box into a dashboard
(docs/observability.md):

* :class:`MetricsBus` — named counters/gauges/histograms with
  ``snapshot``/``since`` delta semantics; **off by default** and
  zero-cost when off (:func:`get_bus` returns ``None`` and every
  instrumentation site skips);
* :mod:`repro.obs.instruments` — the metric name registry
  (:data:`METRICS`) and the record helpers the serving stack calls;
* :class:`MetricsExporter` / :func:`render_prometheus` — a Prometheus
  text exposition endpoint on stdlib :mod:`http.server`, sharing its
  render function with the ``python -m repro.obs --once`` dump;
* :class:`MonitorModel` / :func:`render_text` — the text monitoring
  dashboard ``python -m repro.obs`` redraws live.

Quick start::

    from repro.obs import MetricsBus, MetricsExporter, recording
    from repro.serve import serve_trace

    with recording() as bus, MetricsExporter(bus) as url:
        report = serve_trace(trace, workers=4)   # scrape `url` meanwhile
"""

from repro.obs.bus import (
    BusSnapshot,
    HistogramValue,
    MetricError,
    MetricsBus,
    get_bus,
    install,
    recording,
    uninstall,
)
from repro.obs.exporter import (
    MetricsExporter,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.instruments import METRICS, REGISTRY, Metric, default_bus
from repro.obs.tui import (
    MonitorModel,
    render_text,
    snapshot_samples,
    sparkline,
)

__all__ = [
    "BusSnapshot",
    "HistogramValue",
    "METRICS",
    "Metric",
    "MetricError",
    "MetricsBus",
    "MetricsExporter",
    "MonitorModel",
    "REGISTRY",
    "default_bus",
    "get_bus",
    "install",
    "parse_prometheus",
    "recording",
    "render_prometheus",
    "render_text",
    "snapshot_samples",
    "sparkline",
    "uninstall",
]
