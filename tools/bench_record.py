"""Record the benchmark of this checkout against its parent as BENCH_<n>.json.

Usage, from the root of a checkout, with a copy of the parent commit
made by `git archive`:

    mkdir -p ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/bench_record.py --parent ../parent --out BENCH_<n>.json

Both sides run from copies made the same way: the tracked files of this
checkout, with their uncommitted changes, are archived into `change`
beside the parent copy (which must not exist yet) and removed at the
end. Peak RSS once moved with the directory a run starts from: before
the loaders built their arrays in place, `big-memory` read 153.3 MB from
one copy of a commit and 149.2 MB from a copy at a longer path, and
after, 121.9 MB from both. It runs the unchanged
`python3 perfbench/run.py --workload all --seed 0` in both copies, ten
times each, alternating which side runs first, then one untraced run
at each further seed of SEEDS on each side, for its `metrics.jsonl`
hashes, then one traced pass (`--trace 1`) of every workload in the
change copy. Run nothing else on the machine meanwhile. The file holds:

- per workload and end-to-end metric of BENCHMARK.json, each side's
  runs, median and quartiles, and the pairs the change won and lost
  (ties count for neither);
- per workload and metric, `past_bound`: whether the change's median is
  worse than the parent's by more than the metric's BENCHMARK.json
  `bound` (a fraction of the parent's median), and `parent_spread`: the
  parent's own (q3 - q1) / median, None for a zero median. A metric past
  its bound fails the benchmark; one whose move is within the parent's
  spread cannot be told from noise;
- failed and attempted operations of every run;
- per side, the minor page faults and system seconds of each timed run's
  child processes (`getrusage(RUSAGE_CHILDREN)` deltas) and their
  medians, and for each of the two, the pairs the change won and lost
  and the parent's spread, as for a metric: the page-fault cost of
  freed and re-mapped buffers shows here, not in the timings;
- the environment block of both checkouts and the `metrics.jsonl`
  sha256 of every workload on both sides at every seed of SEEDS, which
  must be equal when a change claims identical outputs;
- the traced pass's per-layer metrics, span summary, work counts (conv
  calls per shape among them) and online-step breakdown.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 3600
PAIRS = 10
SEEDS = (0, 4099)  # the first is timed in PAIRS pairs; the others run once per side for hashes
SEED = SEEDS[0]

_ENV_SNIPPET = (
    "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
    "print(json.dumps(run.environment(int(sys.argv[1]))))"
)


def _lines(checkout: Path, args: list) -> list:
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"bench_record: {args} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return lines


def _copy_change(dest: Path) -> None:
    """`git archive` this checkout's tracked files, uncommitted changes included, into dest."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    tree = git("stash", "create").strip() or b"HEAD"
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", tree.decode()), check=True)


def _bench_all(checkout: Path, seed: int = SEED) -> dict:
    """One `--workload all` run: its last line, {correct, attempted, failed, metrics}, plus
    `child`, the minor faults and system seconds its processes took."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(_lines(checkout, ["perfbench/run.py", "--workload", "all",
                                          "--seed", str(seed)])[-1])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["child"] = {"minor_faults": after.ru_minflt - before.ru_minflt,
                       "sys_s": after.ru_stime - before.ru_stime}
    return result


def _paired(values: dict, better: str) -> dict:
    """The pairs the change won and lost (ties count for neither) and the parent's own
    (q3 - q1) / median, None for a zero median, from each side's runs in pair order."""
    sign = -1.0 if better == "lower" else 1.0
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    q1, med, q3 = np.percentile(values["parent"], [25, 50, 75])
    return {"change_won": sum(d > 0 for d in diffs), "change_lost": sum(d < 0 for d in diffs),
            "parent_spread": float((q3 - q1) / med) if med else None}


def _child_usage(runs: dict) -> dict:
    """Per side, each run's `child` usage and the median of each of its fields; under
    `paired`, each field's pairs won and lost and the parent's spread (fewer is better)."""
    out = {}
    for side, side_runs in runs.items():
        rows = [r["child"] for r in side_runs]
        out[side] = {"runs": rows, "median": {key: float(np.median([row[key] for row in rows]))
                                              for key in rows[0]}}
    out["paired"] = {key: _paired({side: [row[key] for row in out[side]["runs"]] for side in runs},
                                  "lower")
                     for key in out["parent"]["median"]}
    return out


def _environment(checkout: Path) -> dict:
    return json.loads(_lines(checkout, ["-c", _ENV_SNIPPET, str(SEED)])[-1])


def _records_sha256(checkout: Path, env: dict, workload: str, seed: int) -> str:
    """The metrics.jsonl hash perfbench stored for this source, workload and seed."""
    store = (checkout / ".perfbench" / "records" / env["source_sha256"][:16]
             / f"{workload}-seed{seed}.sha256")
    return store.read_text().strip()


def _summary(runs: dict, spec: dict, workloads: list) -> dict:
    out = {}
    for workload in workloads:
        rows = out.setdefault(workload, {})
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            values = {side: [r["metrics"][key]["value"] for r in side_runs]
                      for side, side_runs in runs.items()}
            row = {"unit": metric["unit"], "better": metric["better"]}
            for side, vals in values.items():
                q1, med, q3 = np.percentile(vals, [25, 50, 75])
                row[side] = {"median": med, "q1": q1, "q3": q3, "runs": vals}
            paired = _paired(values, metric["better"])
            row["change_won"], row["change_lost"] = paired["change_won"], paired["change_lost"]
            parent, change = row["parent"], row["change"]
            sign = -1.0 if metric["better"] == "lower" else 1.0
            worse = -sign * (change["median"] - parent["median"])
            row["past_bound"] = bool(worse > metric["bound"] * abs(parent["median"]))
            row["parent_spread"] = paired["parent_spread"]
            rows[metric["name"]] = row
    return out


def _trace(checkout: Path, workload: str) -> dict:
    lines = _lines(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                              "--trace", "1"])
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "per_layer": result["metrics"],
        "online_step_breakdown": report.get("online_step_breakdown"),
        "spans": report.get("spans"),
        "counts": report.get("counts"),
    }


def _record(checkouts: dict, out: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict = {"parent": [], "change": []}
    order = []
    for i in range(PAIRS):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(list(sides))
        for side in sides:
            runs[side].append(_bench_all(checkouts[side]))
            print(f"pair {i + 1}/{PAIRS} {side}: failed {runs[side][-1]['failed']}", flush=True)

    for seed in SEEDS[1:]:
        for side, path in checkouts.items():
            print(f"seed {seed} {side}: failed {_bench_all(path, seed)['failed']}", flush=True)

    env = {side: _environment(path) for side, path in checkouts.items()}
    record = {
        "command": f"python3 perfbench/run.py --workload all --seed {SEED}",
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pairs": PAIRS,
        "order": order,
        "env": env,
        "ops": {side: [{"attempted": r["attempted"], "failed": r["failed"]} for r in side_runs]
                for side, side_runs in runs.items()},
        "metrics_jsonl_sha256": {
            side: {str(seed): {w: _records_sha256(path, env[side], w, seed) for w in workloads}
                   for seed in SEEDS}
            for side, path in checkouts.items()
        },
        "end_to_end": _summary(runs, spec, workloads),
        "child_usage": _child_usage(runs),
        "trace": {w: _trace(checkouts["change"], w) for w in workloads},
    }
    out.write_text(json.dumps(record, indent=1) + "\n")

    for workload, rows in record["end_to_end"].items():
        for name, row in rows.items():
            spread = row["parent_spread"]
            print(f"{workload:>14}  {name:<20} {row['parent']['median']:>12.6g} -> "
                  f"{row['change']['median']:<12.6g} {row['unit']:<6} "
                  f"won {row['change_won']} lost {row['change_lost']} of {PAIRS}  "
                  f"spread {'-' if spread is None else f'{spread:.1%}'}"
                  f"{'  PAST BOUND' if row['past_bound'] else ''}")
    usage = record["child_usage"]
    for key, paired in usage["paired"].items():
        spread = paired["parent_spread"]
        print(f"{'child usage':>14}  {key:<20} {usage['parent']['median'][key]:>12.6g} -> "
              f"{usage['change']['median'][key]:<12.6g} {'':<6} "
              f"won {paired['change_won']} lost {paired['change_lost']} of {PAIRS}  "
              f"spread {'-' if spread is None else f'{spread:.1%}'}")
    failed = sum(r["failed"] for side_runs in runs.values() for r in side_runs)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of a `git archive` copy of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    checkouts = {"parent": parent, "change": parent.parent / "change"}
    _copy_change(checkouts["change"])
    try:
        return _record(checkouts, args.out)
    finally:
        shutil.rmtree(checkouts["change"])


if __name__ == "__main__":
    sys.exit(main())
