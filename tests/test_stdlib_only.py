"""The simulator is stdlib-only.

``pyproject.toml`` declares no runtime dependencies, and the CI jobs that
install the package without the test extras (fault campaign, design-space
exploration, fleet smoke) rely on it. NumPy is a test/bench extra, so the
check runs in a fresh interpreter: importing the package, launching a
compiled kernel and serving a window with energy modeling must never pull
NumPy in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

import repro
from repro.app.mbiotracker import WINDOW
from repro.app.signals import respiration_signal
from repro.kernels import FftEngine, KernelRunner
from repro.serve import serve_trace

runner = KernelRunner(engine="auto")
signal = [(i * 37) % 2001 - 1000 for i in range(256)]
FftEngine(runner, 256).run(signal, signal[::-1])
assert set(runner.soc.vwr2a.engine_decisions) == {"compiled"}

report = serve_trace(respiration_signal(WINDOW), energy_model=True)
assert report.n_windows == 1 and report.total_energy_uj > 0

assert "numpy" not in sys.modules, "the simulator imported NumPy"
"""


def test_simulator_runs_without_importing_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
