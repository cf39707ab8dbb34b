"""The metrics bus: named counters, gauges and histograms.

One :class:`MetricsBus` is a process-local, thread-safe registry of
numeric time series the serving stack publishes while it runs — windows
served, simulated cycles, engine decisions, queue depths, energy per
window. It is the substrate under the Prometheus text endpoint
(:mod:`repro.obs.exporter`) and the monitoring TUI
(:mod:`repro.obs.tui`), and it deliberately knows nothing about either.

**Off by default, zero cost when off.** No bus exists until a caller
installs one (:func:`install` / :func:`recording`); every
instrumentation site in the serving stack does::

    bus = get_bus()
    if bus is not None:
        record_window(bus, ...)

so the disabled path is one global read and a ``None`` check — no
allocation, no locks, no branches inside the simulation itself
(``tests/test_obs.py`` proves the disabled path allocates nothing).
Metrics never feed back into simulated state, so enabling the bus
cannot perturb bit-identity; the tier-1 differential suites run with it
off and a pooled instrumented run is asserted to match its own report
counter-for-counter.

**Snapshot / delta semantics** mirror
:meth:`repro.core.config_mem.StoreStats.snapshot` /
:meth:`~repro.core.config_mem.StoreStats.since`: :meth:`MetricsBus.snapshot`
returns an immutable copy, :meth:`MetricsBus.since` the monotonic delta
accumulated after it (counters and histograms subtract; gauges are
levels and pass through current).
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

#: Kinds a metric family can have; fixed at first use, mixing raises.
KINDS = ("counter", "gauge", "histogram")

#: Default histogram bucket bounds (upper-inclusive ``le`` edges). A
#: wide geometric ladder that covers per-window cycle counts and µJ
#: energies alike; declare per-metric bounds for anything tighter.
DEFAULT_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 500_000.0, 1_000_000.0, 2_500_000.0,
    5_000_000.0, 10_000_000.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


class MetricError(ValueError):
    """A metric was used inconsistently (bad name, kind clash, ...)."""


def _labels_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class HistogramValue:
    """Immutable state of one histogram series.

    ``bounds`` are the upper-inclusive bucket edges (an implicit +Inf
    bucket follows); ``counts`` has ``len(bounds) + 1`` entries and is
    *not* cumulative — rendering to Prometheus ``le`` form happens in
    the exporter.
    """

    bounds: tuple
    counts: tuple
    sum: float = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def minus(self, other: "HistogramValue") -> "HistogramValue":
        if other.bounds != self.bounds:
            raise MetricError(
                "histogram bucket bounds changed between snapshots"
            )
        return HistogramValue(
            bounds=self.bounds,
            counts=tuple(
                a - b for a, b in zip(self.counts, other.counts)
            ),
            sum=self.sum - other.sum,
        )


@dataclass(frozen=True)
class BusSnapshot:
    """An immutable copy of a bus at one instant (pairs with ``since``)."""

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    #: metric family name -> kind, for renderers.
    kinds: dict = field(default_factory=dict)

    def counter(self, name: str, **labels) -> float:
        """One counter series' value (0.0 when it never ticked)."""
        return self.counters.get((name, _labels_key(labels)), 0.0)

    def gauge(self, name: str, **labels):
        """One gauge series' level, or ``None`` when never set."""
        return self.gauges.get((name, _labels_key(labels)))

    def histogram(self, name: str, **labels):
        """One histogram series' :class:`HistogramValue`, or ``None``."""
        return self.histograms.get((name, _labels_key(labels)))

    def counter_family(self, name: str) -> dict:
        """Every series of one counter family: labels key -> value."""
        return {
            key[1]: value for key, value in self.counters.items()
            if key[0] == name
        }



class MetricsBus:
    """Thread-safe counters/gauges/histograms keyed by name + labels.

    ``buckets`` maps histogram family names to their bucket bounds
    (upper-inclusive edges); families not listed use
    :data:`DEFAULT_BUCKETS`. A family's kind is fixed by its first use —
    incrementing a name previously used as a gauge raises
    :class:`MetricError` instead of silently mixing semantics.
    """

    def __init__(self, buckets: dict = None) -> None:
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._kinds = {}
        self._buckets = {
            name: tuple(sorted(float(b) for b in bounds))
            for name, bounds in (buckets or {}).items()
        }
        self._valid_names = set()

    # -- validation ----------------------------------------------------------

    def _check(self, name: str, kind: str, labels: dict) -> tuple:
        if name not in self._valid_names:
            if not _NAME_RE.match(name):
                raise MetricError(
                    f"invalid metric name {name!r} (want "
                    "[a-zA-Z_:][a-zA-Z0-9_:]*)"
                )
            for label in labels:
                if not _LABEL_RE.match(label):
                    raise MetricError(
                        f"invalid label name {label!r} on {name!r}"
                    )
            self._valid_names.add(name)
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise MetricError(
                f"metric {name!r} is a {known}, used as a {kind}"
            )
        return (name, _labels_key(labels))

    # -- writes --------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` (>= 0) to a counter series."""
        if value < 0:
            raise MetricError(
                f"counter {name!r} cannot decrease (inc by {value})"
            )
        with self._lock:
            key = self._check(name, "counter", labels)
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to ``value`` (gauges are levels)."""
        with self._lock:
            key = self._check(name, "gauge", labels)
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        with self._lock:
            key = self._check(name, "histogram", labels)
            hist = self._histograms.get(key)
            if hist is None:
                bounds = self._buckets.get(name, DEFAULT_BUCKETS)
                hist = [bounds, [0] * (len(bounds) + 1), 0.0]
                self._histograms[key] = hist
            bounds, counts, _ = hist
            counts[bisect_left(bounds, value)] += 1
            hist[2] += value

    def drop_gauge(self, name: str, **labels) -> None:
        """Remove one gauge series (e.g. a retired pool worker's depth)."""
        with self._lock:
            self._gauges.pop((name, _labels_key(labels)), None)

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> BusSnapshot:
        """An immutable copy of every series (pairs with :meth:`since`)."""
        with self._lock:
            return BusSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: HistogramValue(
                        bounds=tuple(bounds),
                        counts=tuple(counts),
                        sum=total,
                    )
                    for key, (bounds, counts, total)
                    in self._histograms.items()
                },
                kinds=dict(self._kinds),
            )

    def since(self, snapshot: BusSnapshot) -> BusSnapshot:
        """The monotonic delta accumulated after ``snapshot``.

        Counters and histograms subtract (series absent from the old
        snapshot count from zero); gauges are levels, so the delta
        carries their *current* values — exactly the contract of
        :meth:`repro.core.config_mem.StoreStats.since`, lifted to three
        metric kinds.
        """
        now = self.snapshot()
        return BusSnapshot(
            counters={
                key: value - snapshot.counters.get(key, 0)
                for key, value in now.counters.items()
            },
            gauges=now.gauges,
            histograms={
                key: (
                    value.minus(snapshot.histograms[key])
                    if key in snapshot.histograms else value
                )
                for key, value in now.histograms.items()
            },
            kinds=now.kinds,
        )

    def counter(self, name: str, **labels) -> float:
        """Current value of one counter series (0.0 if it never ticked)."""
        with self._lock:
            return self._counters.get((name, _labels_key(labels)), 0.0)

    def gauge(self, name: str, **labels):
        """Current level of one gauge series, or ``None``."""
        with self._lock:
            return self._gauges.get((name, _labels_key(labels)))

    def kind(self, name: str):
        """The family's kind (``counter``/``gauge``/``histogram``) or None."""
        with self._lock:
            return self._kinds.get(name)

    def clear(self) -> None:
        """Forget every series (kinds persist — semantics don't reset)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# -- the installed bus --------------------------------------------------------

#: The process-wide bus, or None (the default: instrumentation off).
_BUS = None


def get_bus():
    """The installed :class:`MetricsBus`, or ``None`` when metrics are off.

    The one call every instrumentation site makes on its hot path; when
    it returns ``None`` the site must skip all metric work. Reading a
    module global allocates nothing.
    """
    return _BUS


def install(bus: MetricsBus) -> MetricsBus:
    """Install ``bus`` process-wide and return it."""
    global _BUS
    _BUS = bus
    return bus


def uninstall() -> None:
    """Turn instrumentation back off (the default state)."""
    global _BUS
    _BUS = None


class recording:
    """Context manager: install a bus for the block, restore on exit.

    >>> from repro.obs import MetricsBus, recording
    >>> with recording(MetricsBus()) as bus:
    ...     pass  # serve something; bus collects
    """

    def __init__(self, bus: MetricsBus = None) -> None:
        self.bus = bus if bus is not None else MetricsBus()
        self._previous = None

    def __enter__(self) -> MetricsBus:
        global _BUS
        self._previous = _BUS
        _BUS = self.bus
        return self.bus

    def __exit__(self, *exc) -> None:
        global _BUS
        _BUS = self._previous
