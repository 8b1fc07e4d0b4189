"""tools/bench_record.py: the bound and spread fields of its summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = {"end_to_end": [
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "eval_samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def _row(metric, parent, change):
    def runs(values):
        return [{"metrics": {f"w.{metric}": {"value": v}}} for v in values]

    spec = {"end_to_end": [m for m in SPEC["end_to_end"] if m["name"] == metric]}
    summary = bench_record._summary({"parent": runs(parent), "change": runs(change)}, spec, ["w"])
    return summary["w"][metric]


@pytest.mark.parametrize("metric, parent, change, past", [
    ("step_ms_p50", [1.0, 1.0, 1.0], [1.2, 1.2, 1.2], False),
    ("step_ms_p50", [1.0, 1.0, 1.0], [1.3, 1.3, 1.3], True),
    ("step_ms_p50", [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], False),  # better is never past
    ("eval_samples_per_s", [100.0] * 3, [80.0] * 3, False),
    ("eval_samples_per_s", [100.0] * 3, [70.0] * 3, True),
    ("eval_samples_per_s", [100.0] * 3, [200.0] * 3, False),
])
def test_past_bound_is_a_worse_median_beyond_the_bound(metric, parent, change, past):
    assert _row(metric, parent, change)["past_bound"] is past


def test_parent_spread_is_the_interquartile_range_over_the_median():
    row = _row("step_ms_p50", [1.0, 2.0, 3.0, 4.0, 5.0], [3.0] * 5)
    assert row["parent_spread"] == pytest.approx((4.0 - 2.0) / 3.0)
    assert _row("step_ms_p50", [0.0] * 3, [0.0] * 3)["parent_spread"] is None
