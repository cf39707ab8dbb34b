"""Tiny-size runs of every workload through the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

assert run.add_src_path()

import hostspeed  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SEED = 3


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in run.BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    out = run.measure(name, SEED, 0.05, trace=False, sizes=TINY)
    result = out["result"]
    assert result["correct"], out["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.E2E_UNITS
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_nested_spans(name):
    out = run.measure(name, SEED, 0.05, trace=True, sizes=TINY)
    result = out["result"]
    assert result["correct"], out["notes"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == run.LAYER_UNITS
    path = os.path.join(run.OUT, f"trace-{name}-seed{SEED}.json")
    with open(path) as handle:
        trace = json.load(handle)
    for phase in ("setup", "steady"):
        spans = [tuple(s) for s in trace[phase]]
        assert spans
        by_id = {s[0]: s for s in spans}
        for sid, value in self_times(spans).items():
            assert value >= 0.0, by_id[sid]
        for span in spans:
            parent = by_id.get(span[4])
            if parent is not None:
                assert parent[2] <= span[2] <= span[3] <= parent[3], span
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.cgra.launches"] > 0
    if name == "fft2048":
        assert metrics["energy.fold_s"] == 0


def test_one_slow_probe_does_not_scale_its_rounds():
    ref = hostspeed.REFERENCE_S
    scales = hostspeed.scales([ref, ref, 2 * ref, ref, ref])
    assert scales == [1.0, 1.0, 1.0, 1.0]
    burst = hostspeed.scales([ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref])
    assert burst[-1] == 0.5


def test_tail_ignores_blips_but_not_a_recurring_slow_item():
    blips = [1.0] * 320
    blips[5] = blips[40] = blips[300] = 9.0
    assert run.tail(blips) == (1.0, 10)
    every_8th = [9.0 if k % 8 == 7 else 1.0 for k in range(320)]
    assert run.tail(every_8th) == (9.0, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fft2048",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
