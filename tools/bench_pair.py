"""Time `online_step` of this checkout against its parent in one process, step by step.

Usage, from the root of a checkout, with a copy of the parent commit
made by `git archive`:

    mkdir -p ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/bench_pair.py --parent ../parent --workload big-memory

Both `src/latentreplay` copies are imported side by side, as the
modules `parent_latentreplay` and `change_latentreplay`. Each side
builds its own state from the workload's config text, which is read
from this checkout's `perfbench/run.py` (its `WORKLOADS` table, parsed,
not run), plus `seed` and `class_order_seed` lines as perfbench adds
them. The two sides then take the steps of tasks 2..T in turn, ABBA:
step i runs the parent first when i is even and the change first when
it is odd, so neither side always runs on a warm cache. Each step is
timed in process CPU time, as perfbench times `step_ms`.

At the end, the two states must hold the same `state_arrays`, byte for
byte, the same step count and the same rng state; otherwise the command
exits 1. The last line of standard output is one JSON object: the
per-step ratio change/parent (median and quartiles), the steps each
side won (ties count for neither) and each side's median step in ms.

`--change DIR` points the change side at another checkout; with the
parent's own directory it times the parent against itself, the noise
floor a ratio must clear. Evaluations, checkpoint round trips and
`init` are not timed here.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as perfbench/run.py, before numpy loads BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_package(checkout: Path, name: str):
    """Import `checkout`/src/latentreplay as the package `name`, with the submodules a side
    uses loaded under it; a second copy never shares a module with the first."""
    src = checkout / "src" / "latentreplay"
    for stale in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[stale]  # an earlier load under this name; its submodules are not reused
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("config", "datasets", "engine"):
        importlib.import_module(f"{name}.{sub}")
    return package


def workload_text(name: str, seed: int) -> str:
    """perfbench's config text for workload `name` at `seed`, read from its WORKLOADS table."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    tables = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"]]
    if not tables:
        raise SystemExit("bench_pair: no WORKLOADS table in perfbench/run.py")
    if name not in tables[0]:
        raise SystemExit(f"bench_pair: unknown workload {name!r}; known: {', '.join(tables[0])}")
    return tables[0][name] + f"seed = {seed}\nclass_order_seed = {seed}\n"


def order(step: int) -> tuple:
    """The sides in the order they take step `step`: ABBA, parent first on even steps."""
    return SIDES if step % 2 == 0 else SIDES[::-1]


def same_state(a, b, engine_a, engine_b) -> bool:
    """Equal `state_arrays` (names, dtypes, shapes, bytes), step counts and rng states."""
    arrays_a, arrays_b = engine_a.state_arrays(a), engine_b.state_arrays(b)
    return (
        len(arrays_a) == len(arrays_b)
        and all(na == nb and x.dtype == y.dtype and x.shape == y.shape
                and x.tobytes() == y.tobytes()
                for (na, x), (nb, y) in zip(arrays_a, arrays_b))
        and a.global_step == b.global_step
        and a.rng.bit_generator.state == b.rng.bit_generator.state
    )


def run_pair(packages: dict, text: str) -> dict:
    """Initialize both sides (side -> package) from `text`, alternate their steps, return the
    report."""
    engines = {side: p.engine for side, p in packages.items()}
    states, streams = {}, {}
    for side, p in packages.items():
        cfg = p.config.parse_config(text)
        dataset = p.datasets.load_dataset(cfg)
        streams[side] = p.engine.build_task_stream(dataset, cfg).tasks
        states[side] = p.engine.initialize(streams[side][0], cfg)

    times = {side: [] for side in SIDES}
    step = 0
    for tid in range(1, len(streams["parent"])):
        tasks = {side: streams[side][tid] for side in SIDES}
        for i in range(len(tasks["parent"].labels)):
            for side in order(step):
                x, y = tasks[side].images[i], int(tasks[side].labels[i])
                t0 = time.process_time()
                engines[side].online_step(states[side], x, y)
                times[side].append(time.process_time() - t0)
            step += 1

    parent, change = np.asarray(times["parent"]), np.asarray(times["change"])
    ratios = change / np.maximum(parent, 1e-9)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {
        "steps": step,
        "ratio_median": float(median),
        "ratio_q1": float(q1),
        "ratio_q3": float(q3),
        "change_won": int(np.count_nonzero(change < parent)),
        "parent_won": int(np.count_nonzero(parent < change)),
        "parent_ms_p50": float(np.median(parent) * 1e3),
        "change_ms_p50": float(np.median(change) * 1e3),
        "same_state": same_state(states["parent"], states["change"],
                                 engines["parent"], engines["change"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of a `git archive` copy of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the checkout to time against it (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    text = workload_text(args.workload, args.seed)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    packages = {side: load_package(path, f"{side}_latentreplay")
                for side, path in checkouts.items()}
    report = run_pair(packages, text)
    report = {"workload": args.workload, "seed": args.seed, **report}
    print(json.dumps(report))
    return 0 if report["same_state"] else 1


if __name__ == "__main__":
    sys.exit(main())
