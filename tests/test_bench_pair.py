"""tools/bench_pair.py: two copies of the package side by side, their steps in ABBA order, the
end-state check and the report, on the `tiny` workload."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

FIELDS = {"workload", "seed", "steps", "ratio_median", "ratio_q1", "ratio_q3", "change_won",
          "parent_won", "parent_ms_p50", "change_ms_p50", "same_state"}


def test_two_copies_load_as_two_packages():
    a = bench_pair.load_package(ROOT, "pair_a_latentreplay")
    b = bench_pair.load_package(ROOT, "pair_b_latentreplay")
    assert a.engine is not b.engine and a.nn.ops is not b.nn.ops
    assert a.engine.__name__ == "pair_a_latentreplay.engine"
    assert b.engine.Tensor is b.nn.Tensor and a.engine.Tensor is not b.engine.Tensor
    assert Path(a.engine.__file__) == ROOT / "src" / "latentreplay" / "engine.py"


def test_workload_text_is_perfbench_s_table_plus_the_seed():
    text = bench_pair.workload_text("tiny", 7)
    assert text.startswith("dataset.per_class = 20\n")
    assert text.endswith("reservoir.capacity = 30\nseed = 7\nclass_order_seed = 7\n")


def test_unknown_workload_is_refused_with_the_known_names():
    with pytest.raises(SystemExit) as exit_:
        bench_pair.main(["--parent", str(ROOT), "--workload", "nope"])
    message = str(exit_.value.code)
    assert message.startswith("bench_pair: unknown workload 'nope'; known: ") and "\n" not in message
    assert {"tiny", "paper-default", "deep-head", "big-memory"} <= set(
        message.split("known: ")[1].split(", "))


def test_steps_alternate_abba_and_both_sides_end_in_one_state(monkeypatch):
    packages = {side: bench_pair.load_package(ROOT, f"pair_{side}_latentreplay")
                for side in bench_pair.SIDES}
    calls = []
    for side, package in packages.items():
        step = package.engine.online_step

        def logged(state, x, y, side=side, step=step):
            calls.append(side)
            return step(state, x, y)

        monkeypatch.setattr(package.engine, "online_step", logged)
    report = bench_pair.run_pair(packages, bench_pair.workload_text("tiny", 0))
    assert report["steps"] == 160 and len(calls) == 320  # tasks 2..5 of 2 classes x 20
    assert calls[:8] == ["parent", "change", "change", "parent"] * 2
    assert calls == [side for i in range(160) for side in bench_pair.order(i)]
    assert report["same_state"] is True
    assert report["change_won"] + report["parent_won"] <= report["steps"]
    assert report["ratio_q1"] <= report["ratio_median"] <= report["ratio_q3"]


def test_command_prints_every_field_and_exits_0_on_equal_states(capsys):
    assert bench_pair.main(["--parent", str(ROOT), "--workload", "tiny", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == FIELDS and report["workload"] == "tiny" and report["seed"] == 1
    assert report["same_state"] is True and report["parent_ms_p50"] > 0


def test_command_exits_1_when_the_sides_end_in_different_states(monkeypatch, capsys):
    # the change side draws once more from its rng, before its first step; nothing else differs
    load = bench_pair.load_package

    def load_drifting(checkout, name):
        package = load(checkout, name)
        if name.startswith("change"):
            step, drawn = package.engine.online_step, []

            def online_step(state, x, y):
                if not drawn:
                    drawn.append(state.rng.random())
                return step(state, x, y)

            monkeypatch.setattr(package.engine, "online_step", online_step)
        return package

    monkeypatch.setattr(bench_pair, "load_package", load_drifting)
    assert bench_pair.main(["--parent", str(ROOT), "--workload", "tiny"]) == 1
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == FIELDS and report["same_state"] is False and report["steps"] == 160
