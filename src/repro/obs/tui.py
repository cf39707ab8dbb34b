"""The monitoring TUI: tail a live pool from its metrics.

Split model/view so the dashboard works — and is testable — everywhere:

* :class:`MonitorModel` is pure python. It ingests metric samples from a
  local :class:`~repro.obs.MetricsBus` or a scraped exposition
  (:func:`~repro.obs.parse_prometheus`), keeps a short history, and
  derives the live quantities the dashboard shows: per-worker windows/s
  and queue depth, engine decision mix, fallback reasons,
  energy-per-window trend, checkpoint lag.
* :func:`render_text` renders the model as a text dashboard — what
  ``python -m repro.obs`` redraws every refresh interval.
"""

from __future__ import annotations

import collections

from repro.obs.bus import BusSnapshot, MetricsBus

#: Samples of history the model keeps (enough for a trend sparkline).
HISTORY = 64

#: Eight-level block characters for the energy trend sparkline.
_SPARK = " ▁▂▃▄▅▆▇█"


def snapshot_samples(snapshot: BusSnapshot) -> dict:
    """Flatten a bus snapshot into ``(name, labels_key) -> float`` samples.

    The same keying :func:`~repro.obs.parse_prometheus` produces from a
    scraped exposition, so the model ingests local and remote sources
    through one code path. Histograms flatten to their ``_sum`` and
    ``_count`` series (the trend math only needs those).
    """
    samples = {}
    samples.update(snapshot.counters)
    samples.update(snapshot.gauges)
    for (name, labels_key), hist in snapshot.histograms.items():
        samples[(f"{name}_sum", labels_key)] = hist.sum
        samples[(f"{name}_count", labels_key)] = hist.count
    return samples


def sparkline(values, width: int = 24) -> str:
    """Render ``values`` (most recent last) as a block-character strip."""
    values = list(values)[-width:]
    if not values:
        return ""
    low, high = min(values), max(values)
    span = high - low
    if span <= 0:
        return _SPARK[4] * len(values)
    return "".join(
        _SPARK[1 + round((value - low) / span * (len(_SPARK) - 2))]
        for value in values
    )


class MonitorModel:
    """Rolling metric history + the derived dashboard quantities."""

    def __init__(self, history: int = HISTORY) -> None:
        self.ticks = collections.deque(maxlen=history)
        self._baseline = None

    # -- ingest --------------------------------------------------------------

    def ingest(self, samples: dict, now: float) -> None:
        """Record one sampling tick (``samples`` as from
        :func:`snapshot_samples` / :func:`~repro.obs.parse_prometheus`)."""
        if self._baseline is None:
            self._baseline = (now, dict(samples))
        self.ticks.append((now, samples))

    def ingest_bus(self, bus: MetricsBus, now: float) -> None:
        self.ingest(snapshot_samples(bus.snapshot()), now)

    # -- raw accessors -------------------------------------------------------

    @property
    def latest(self) -> dict:
        return self.ticks[-1][1] if self.ticks else {}

    def value(self, name: str, default=None, **labels):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.latest.get(key, default)

    def family(self, name: str) -> dict:
        """Every series of one family in the latest tick: labels -> value."""
        return {
            key[1]: value for key, value in self.latest.items()
            if key[0] == name
        }

    def _rate(self, key: tuple) -> float:
        """Per-second rate of one counter series since the baseline."""
        if not self.ticks or self._baseline is None:
            return 0.0
        now, samples = self.ticks[-1]
        base_time, base = self._baseline
        elapsed = now - base_time
        if elapsed <= 0:
            return 0.0
        return (samples.get(key, 0.0) - base.get(key, 0.0)) / elapsed

    # -- derived dashboard quantities ----------------------------------------

    def progress(self) -> tuple:
        """``(done, total)`` windows of the stream being served."""
        return (
            int(self.value("repro_stream_done", 0)),
            int(self.value("repro_stream_windows", 0)),
        )

    def throughput(self) -> float:
        """Stream windows/s: the published gauge, else a counter rate."""
        gauge = self.value("repro_stream_windows_per_second")
        if gauge is not None:
            return gauge
        return self._rate(("repro_windows_served_total", ()))

    def worker_rows(self) -> list:
        """Per-worker ``(worker, windows, windows/s, queue_depth)`` rows."""
        served = self.family("repro_pool_worker_windows_total")
        depth = self.family("repro_pool_queue_depth")
        rows = []
        for labels_key in sorted(set(served) | set(depth)):
            worker = dict(labels_key).get("worker", "?")
            rows.append((
                worker,
                int(served.get(labels_key, 0)),
                self._rate(("repro_pool_worker_windows_total", labels_key)),
                int(depth.get(labels_key, 0)),
            ))
        return rows

    def engine_rows(self) -> list:
        """``(engine, launches, share)`` rows of the decision mix."""
        launches = self.family("repro_launches_total")
        total = sum(launches.values())
        return [
            (
                dict(labels_key).get("engine", "?"),
                int(count),
                count / total if total else 0.0,
            )
            for labels_key, count in sorted(launches.items())
        ]

    def reason_rows(self) -> list:
        """Reference-engine fallbacks, tallied per kernel."""
        return [
            ("fallback", dict(labels_key).get("kernel", "?"), int(count))
            for labels_key, count
            in sorted(self.family("repro_engine_fallbacks_total").items())
        ]

    def energy_per_window(self) -> list:
        """µJ/window between consecutive ticks (the trend series)."""
        trend = []
        previous = None
        for _, samples in self.ticks:
            energy = samples.get(("repro_energy_uj_total", ()), 0.0)
            windows = samples.get(("repro_windows_served_total", ()), 0.0)
            if previous is not None:
                d_energy = energy - previous[0]
                d_windows = windows - previous[1]
                if d_windows > 0:
                    trend.append(d_energy / d_windows)
            previous = (energy, windows)
        return trend

    def checkpoint_lag(self) -> int:
        """Windows completed since the last checkpoint flush."""
        return int(self.value("repro_checkpoint_lag_windows", 0))

    def resilience_rows(self) -> list:
        """``(event, count)`` resilience counters, largest first."""
        rows = [
            (dict(labels_key).get("event", "?"), int(count))
            for labels_key, count
            in self.family("repro_resilience_total").items()
        ]
        return sorted(rows, key=lambda row: (-row[1], row[0]))


# -- the text dashboard -------------------------------------------------------


def render_text(model: MonitorModel) -> str:
    """The whole dashboard as plain text."""
    done, total = model.progress()
    lines = [
        "repro live monitor",
        f"  stream: {done}/{total} windows  "
        f"{model.throughput():.2f} windows/s  "
        f"checkpoint lag: {model.checkpoint_lag()} windows",
    ]
    workers = model.worker_rows()
    if workers:
        lines.append("  workers:")
        for worker, windows, rate, depth in workers:
            lines.append(
                f"    w{worker}: {windows} windows  {rate:.2f}/s  "
                f"queue {depth}"
            )
    engines = model.engine_rows()
    if engines:
        mix = "  ".join(
            f"{engine}: {count} ({share:.0%})"
            for engine, count, share in engines
        )
        lines.append(f"  engines: {mix}")
    reasons = model.reason_rows()
    if reasons:
        lines.append("  reasons:")
        for kind, what, count in reasons:
            lines.append(f"    {kind} {what}: {count}")
    trend = model.energy_per_window()
    if trend:
        lines.append(
            f"  energy/window: {trend[-1]:.2f} uJ  {sparkline(trend)}"
        )
    resilience = model.resilience_rows()
    if resilience:
        mix = "  ".join(f"{event}: {count}" for event, count in resilience)
        lines.append(f"  resilience: {mix}")
    return "\n".join(lines)
