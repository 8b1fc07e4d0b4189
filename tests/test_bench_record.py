"""tools/bench_record.py: its summary's bound and spread fields, and each run's child usage."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

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


def test_each_run_stores_its_childrens_faults_and_system_time(monkeypatch):
    usage = iter([(100, 1.0), (350, 1.25), (350, 1.25), (400, 1.5)])

    def getrusage(who):
        assert who == bench_record.resource.RUSAGE_CHILDREN
        faults, sys_s = next(usage)
        return SimpleNamespace(ru_minflt=faults, ru_stime=sys_s)

    monkeypatch.setattr(bench_record.resource, "getrusage", getrusage)
    monkeypatch.setattr(bench_record, "_lines", lambda checkout, args: ['{"failed": 0}'])
    runs = [bench_record._bench_all(Path(".")) for _ in range(2)]
    assert [r["child"] for r in runs] == [{"minor_faults": 250, "sys_s": 0.25},
                                         {"minor_faults": 50, "sys_s": 0.25}]
    usage = bench_record._child_usage({"parent": runs, "change": runs[:1]})
    assert usage["parent"]["median"] == {"minor_faults": 150.0, "sys_s": 0.25}
    assert usage["change"] == {"runs": [runs[0]["child"]],
                               "median": {"minor_faults": 250.0, "sys_s": 0.25}}


def test_child_usage_counts_pairs_and_the_parents_spread_as_a_metric_does():
    def runs(faults):
        return [{"child": {"minor_faults": f, "sys_s": 0.5}} for f in faults]

    parent, change = [100, 200, 300, 400, 500], [50, 250, 100, 400, 90]
    usage = bench_record._child_usage({"parent": runs(parent), "change": runs(change)})
    assert usage["paired"]["minor_faults"] == {"change_won": 3, "change_lost": 1,
                                               "parent_spread": pytest.approx(200 / 300)}
    assert usage["paired"]["sys_s"] == {"change_won": 0, "change_lost": 0, "parent_spread": 0.0}
    # fewer faults win, as a lower-is-better metric's smaller value does
    row = _row("step_ms_p50", parent, change)
    assert {k: row[k] for k in usage["paired"]["minor_faults"]} == usage["paired"]["minor_faults"]
