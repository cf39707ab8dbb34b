"""The bench-trend gate (``bench_trend.compare``) in both directions.

A guarded metric where higher is better fails on a drop of more than
``MAX_REGRESSION``; one where lower is better (the warm FFT-2048
transform's Python calls) fails on a rise of more than that. A gain
never fails, and a metric missing on either side is not compared.
"""

from __future__ import annotations

import pytest

from bench_trend import GUARDED_METRICS, MAX_REGRESSION, compare


def _snapshot(speedup=None, calls=None, pool=None, enforced=True) -> dict:
    payload = {}
    if speedup is not None:
        payload["speedup"] = speedup
    if calls is not None:
        payload["warm_transform"] = {"python_calls": calls}
    if pool is not None:
        payload["pool_windows_per_s"] = {
            "speedup": pool, "guard_enforced": enforced,
        }
    return payload


def _row(rows, metric):
    (row,) = [row for row in rows if row[0] == metric]
    return row


def test_warm_transform_calls_are_guarded_lower_is_better():
    assert GUARDED_METRICS[("warm_transform", "python_calls")][1] \
        == "lower"


@pytest.mark.parametrize("factor, failed", [
    (1 + MAX_REGRESSION + 0.01, True),    # calls rose past the bound
    (1 + MAX_REGRESSION - 0.01, False),   # within the bound
    (0.5, False),                         # fewer calls: a gain
])
def test_lower_is_better_fails_on_a_rise(factor, failed):
    old, new = 4000, 4000 * factor
    metric, committed, measured, drop, bad = _row(
        compare(_snapshot(calls=old), _snapshot(calls=new)),
        "warm_transform.python_calls",
    )
    assert (committed, measured) == (old, new)
    assert drop == pytest.approx(factor - 1)
    assert bad is failed


@pytest.mark.parametrize("factor, failed", [
    (1 - MAX_REGRESSION - 0.01, True),    # speedup fell past the bound
    (1 - MAX_REGRESSION + 0.01, False),
    (2.0, False),                         # a gain
])
def test_higher_is_better_fails_on_a_drop(factor, failed):
    rows = compare(_snapshot(speedup=40.0), _snapshot(speedup=40 * factor))
    _, _, _, drop, bad = _row(rows, "speedup")
    assert drop == pytest.approx(1 - factor)
    assert bad is failed


def test_missing_or_unenforced_metrics_are_not_compared():
    assert compare(_snapshot(calls=4000), _snapshot(speedup=40.0)) == []
    rows = compare(_snapshot(pool=2.0, enforced=False),
                   _snapshot(pool=0.5, enforced=True))
    assert rows == []
