"""``python -m repro.obs`` — the live monitor and exposition dump.

Modes (docs/observability.md):

* ``--once``          serve a short pooled demo stream with the bus
                      installed and print the full Prometheus text
                      exposition (the acceptance smoke path);
* ``--serve``         same demo, but keep the scrape endpoint up after
                      the stream finishes (Ctrl-C to exit);
* *default*           monitor a metric source live — a remote exporter
                      with ``--endpoint URL``, else the built-in demo
                      pool running on a background thread — by
                      redrawing the text dashboard every ``--interval``
                      seconds until the demo finishes or Ctrl-C.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
import urllib.request

from repro.obs.bus import MetricsBus, install, uninstall
from repro.obs.exporter import (
    MetricsExporter,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.instruments import default_bus
from repro.obs.tui import MonitorModel, render_text, snapshot_samples


def demo_stream(bus: MetricsBus, windows: int, workers: int,
                done: threading.Event = None) -> None:
    """Serve a short synthetic pooled stream with ``bus`` installed.

    The built-in metric source for the monitor and the ``--once`` dump:
    a respiration trace through ``serve_trace(workers=...)`` with energy
    modeling on and a throwaway checkpoint (so the checkpoint-lag gauge
    moves too).
    """
    from repro.app.mbiotracker import WINDOW
    from repro.app.signals import respiration_signal
    from repro.serve import serve_trace

    install(bus)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            serve_trace(
                respiration_signal(windows * WINDOW),
                workers=workers,
                checkpoint=f"{scratch}/monitor-demo.ckpt",
            )
    finally:
        uninstall()
        if done is not None:
            done.set()


def _scraper(endpoint: str):
    """A sampler polling a remote exporter's text exposition."""

    def sample() -> dict:
        with urllib.request.urlopen(endpoint, timeout=5.0) as response:
            return parse_prometheus(response.read().decode())

    return sample


def _monitor(sample, interval: float, done) -> None:
    """The dashboard loop: clear, render, sleep, repeat."""
    model = MonitorModel()
    try:
        while True:
            model.ingest(sample(), time.monotonic())
            sys.stdout.write("\x1b[2J\x1b[H" + render_text(model) + "\n")
            sys.stdout.flush()
            if done is not None and done.is_set():
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=(
            "Live monitor over the serving stack's metrics bus "
            "(see docs/observability.md)."
        ),
    )
    parser.add_argument(
        "--once", action="store_true",
        help="serve the demo stream, print the Prometheus text "
             "exposition, exit",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="serve the demo stream and keep the scrape endpoint up",
    )
    parser.add_argument(
        "--endpoint", metavar="URL", default=None,
        help="monitor a running exporter instead of the built-in demo",
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="exporter port for --serve (default: pick a free one)",
    )
    parser.add_argument(
        "--windows", type=int, default=4,
        help="demo stream length in application windows (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="demo pool size (default 2)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="dashboard refresh seconds (default 1.0)",
    )
    args = parser.parse_args(argv)

    if args.once:
        bus = default_bus()
        demo_stream(bus, args.windows, args.workers)
        sys.stdout.write(render_prometheus(bus))
        return 0

    if args.serve:
        bus = default_bus()
        exporter = MetricsExporter(bus, port=args.port)
        url = exporter.start()
        print(f"scrape endpoint up at {url}", file=sys.stderr)
        demo_stream(bus, args.windows, args.workers)
        print(
            "demo stream complete; endpoint stays up (Ctrl-C to exit)",
            file=sys.stderr,
        )
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            exporter.stop()
        return 0

    # Monitor mode: pick the metric source, then redraw the dashboard.
    done = None
    if args.endpoint is not None:
        sample = _scraper(args.endpoint)
    else:
        bus = default_bus()
        done = threading.Event()
        worker = threading.Thread(
            target=demo_stream,
            args=(bus, args.windows, args.workers, done),
            daemon=True,
        )
        worker.start()

        def sample() -> dict:
            return snapshot_samples(bus.snapshot())

    _monitor(sample, args.interval, done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
