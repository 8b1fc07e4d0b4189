"""Self-test of the benchmark on the `tiny` workload.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# The end-to-end metrics and units the benchmark promises, by name.
E2E = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "stream_steps_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "checkpoint_save_ms": "ms",
    "checkpoint_load_ms": "ms",
    "checkpoint_bytes": "B",
    "peak_rss_mb": "MB",
    "final_top1": "fraction",
    "aoc_top1": "fraction",
    "ops_attempted": "count",
    "ops_failed": "count",
}


def _bench(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run(*extra) -> tuple[int, dict, dict]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tiny",
           "--seed", "3", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    code, report, result = _run("--trace", "0")
    assert code == 0, report.get("failures")
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _bench("end_to_end")
    assert set(report["env"]) >= {"nproc", "python", "numpy", "blas", "threads", "git_commit",
                                  "seed"}


def test_traced_run_emits_every_per_layer_metric():
    code, report, result = _run("--trace", "1")
    assert code == 0, report.get("failures")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _bench("per_layer")
    # The traced layers account for nearly all of the step's time.
    assert report["online_step_breakdown"]["unattributed_share"] < 0.25
    assert any(k.startswith("nn.conv2d.") for k in report["counts"])


def test_injected_fault_is_counted_and_fails_the_command():
    code, report, result = _run("--trace", "0", "--inject-fault")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "frozen digest unchanged after the stream" in report["failures"]


def test_final_top1_below_the_floor_fails_only_on_the_reference_seed():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    collapsed = SimpleNamespace(records=[SimpleNamespace(top1=0.1)])
    ledger = run.Ledger()
    assert run._check_final_top1("paper-default", run.REFERENCE_SEED + 1, collapsed, ledger)
    assert ledger.failed == 0
    assert run._check_final_top1("paper-default", run.REFERENCE_SEED, collapsed, ledger)
    assert ledger.failed == 1 and ledger.attempted == 2


def test_directory_without_the_package_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
