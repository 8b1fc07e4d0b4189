"""Benchmark for latentreplay: set-up, online stream, checkpoint round trips.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

One run sets the workload up twice (config to a ready EngineState) and
streams tasks 2..T one `online_step` at a time. At every task boundary it
evaluates on the seen classes, then saves a checkpoint, loads it back and
continues from the loaded state, as repeated `latentreplay stream
--until-task t` does. It ends with evaluations on the full test set.
Correctness checks run throughout; `ops_failed > 0` makes the command
exit 1.

`--trace 1` runs one traced set-up, then an untraced and a traced stream
pass, and reports per-layer metrics instead. See perfbench/README.md for
the workloads, metrics and layer table.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The package is measured from this checkout's source, never from an
# installed copy.
if not (SRC / "latentreplay" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

# BLAS runs on one thread unless the caller says otherwise. On a machine of
# few shared cores, a product split over two threads waits for whichever
# core the host has taken away. One thread also keeps the process's CPU time,
# which the benchmark measures, the time of the thread doing the work. The
# values are recorded in the report's env.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from latentreplay import checkpoint, datasets, engine, reporting  # noqa: E402
from latentreplay.config import parse_config, serialize_config  # noqa: E402
from latentreplay.metrics import MetricRecord, aoc  # noqa: E402

ROUND_TRIPS = 2  # save/load round trips per task boundary, continuing from each
PROBES_PER_TASK = 25  # timed round trips of the last boundary's state, spread over a task
BOUNDARY_EVALS = 2  # full-test evaluations per task boundary, for throughput
FINAL_EVAL_REPEATS = 2

# final_top1 (LAST) floors, below every seed whose training does not
# collapse (README.md, "Correctness gate"). On REFERENCE_SEED, the config
# default, training does not collapse on any workload at this commit, so
# there a LAST below the floor fails the run. On other seeds it is
# reported as the known collapse defect.
TOP1_FLOOR = {"paper-default": 0.8, "deep-head": 0.8, "big-memory": 0.15, "tiny": 0.0}
REFERENCE_SEED = 0


# Changes from the defaults in config.py, per workload. Why each exists
# is in README.md.
WORKLOADS = {
    "paper-default": "",
    "deep-head": (
        "net.replay_block = 1\n"
        "acae.latent_channels = 4\n"
        "pq.s = 4\n"
        "dataset.test_per_class = 100\n"
    ),
    "big-memory": (
        "net.replay_block = 3\n"
        "acae.latent_channels = 8\n"
        "pq.s = 4\n"
        "dataset.per_class = 500\n"
        "dataset.test_per_class = 100\n"
        "reservoir.capacity = 2000\n"
        "offline.epochs = 4\n"
        "acae.epochs = 4\n"
        "pq.iters = 5\n"
    ),
    # For the self-test only: every code path in a few seconds.
    "tiny": (
        "dataset.per_class = 20\n"
        "dataset.test_per_class = 5\n"
        "offline.epochs = 1\n"
        "acae.epochs = 1\n"
        "pq.k = 16\n"
        "pq.iters = 2\n"
        "reservoir.capacity = 30\n"
    ),
}
BENCH_WORKLOADS = ("paper-default", "deep-head", "big-memory")

E2E_UNITS = {
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


class Ledger:
    """Counts operations attempted and failed; a failed check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """sha256 over the package and benchmark sources: the commit's identity."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _boundary_record(state, dataset, step: int, task_id: int, ledger: Ledger) -> MetricRecord:
    """Evaluate on the seen classes, as the CLI does at a task boundary."""
    mask = np.isin(dataset.test_labels, sorted(state.seen_classes))
    ledger.op()
    result = engine.evaluate(state, dataset.test_images[mask], dataset.test_labels[mask])
    return MetricRecord(step, task_id, len(state.seen_classes), result["top1"], result["top5"], True)


def set_up(cfg, text: str, path: str, ledger: Ledger) -> tuple:
    """Config to a ready EngineState (timed), then the init checkpoint (untimed)."""
    t0 = time.perf_counter()
    dataset = datasets.load_dataset(cfg)
    stream = engine.build_task_stream(dataset, cfg)
    state = engine.initialize(stream.tasks[0], cfg)
    seconds = time.perf_counter() - t0
    record = _boundary_record(state, dataset, 0, 1, ledger)
    checkpoint.save_checkpoint(state, path, config_text=text, records=[record])
    return seconds, dataset, stream


class StreamPass:
    """One pass over tasks 2..T, resumed from the init checkpoint, a task at a time.

    Each task ends at a boundary: evaluate on the seen classes, then
    ROUND_TRIPS save/load round trips, continuing from the last loaded
    state. `stream_s` counts what a user of repeated `stream --until-task`
    waits for: the steps, the boundary evaluation and one round trip.

    Steps, evaluations, saves and loads are timed in the process's CPU
    time, which on a virtual machine leaves out the time the host gives
    the core to someone else (steal); the report keeps the steps' wall
    times too. `stream_s` is wall time.

    The checkpoint timings also sample PROBES_PER_TASK round trips spread
    evenly between the steps of each task. They run on a separately
    loaded copy of the last boundary's state, each saving the state the
    one before loaded, so every one must write that boundary's checkpoint
    byte for byte. The machine's speed drifts over seconds, so round trips
    taken only at the boundaries would time a few moments of a run;
    spread out, they time all of it.
    """

    def __init__(self, init_path: str, dataset, work: Path, ledger: Ledger, name: str):
        bundle = checkpoint.load_checkpoint(init_path)
        self.state, self.records = bundle.state, list(bundle.records)
        self.config_text = bundle.config_text
        self.dataset, self.ledger = dataset, ledger
        self.path = str(work / f"{name}.ckpt")
        self.probe_path = str(work / f"{name}-probe.ckpt")
        self.probe = checkpoint.load_checkpoint(init_path)
        self.probe_sha = _sha256_file(init_path)
        self.metrics_dir = str(work / name)
        self.inserts = len(self.state.reservoir)
        self.step_s, self.save_s, self.load_s, self.sizes, self.eval_s = [], [], [], [], []
        self.step_wall_s = []
        self.task_slices = []  # (first step index, step count) per task
        self.stream_s = 0.0
        self.stream_steps = 0

    def _probe_round_trip(self) -> str:
        """Time a save and a load of the probe state, keep what was loaded; return the sha256."""
        t0 = time.process_time()
        checkpoint.save_checkpoint(self.probe.state, self.probe_path,
                                   config_text=self.config_text, records=self.probe.records)
        t1 = time.process_time()
        self.probe = checkpoint.load_checkpoint(self.probe_path)
        t2 = time.process_time()
        self.save_s.append(t1 - t0)
        self.load_s.append(t2 - t1)
        self.ledger.op()
        return _sha256_file(self.probe_path)

    def run_task(self, task) -> None:
        state, ledger, dataset = self.state, self.ledger, self.dataset
        t_task = time.perf_counter()
        state.current_task = task.task_id
        state.seen_classes |= set(task.classes)
        n = len(task.labels)
        probe_at = {int((j + 0.5) * n / PROBES_PER_TASK) for j in range(PROBES_PER_TASK)}
        probe_s, probe_shas = 0.0, set()
        for i in range(n):
            x, y = task.images[i], int(task.labels[i])
            t0, c0 = time.perf_counter(), time.process_time()
            engine.online_step(state, x, y)
            self.step_s.append(time.process_time() - c0)
            self.step_wall_s.append(time.perf_counter() - t0)
            if i in probe_at:
                t0 = time.perf_counter()
                probe_shas.add(self._probe_round_trip())
                probe_s += time.perf_counter() - t0
        ledger.check(f"round trips during task {task.task_id} rewrite the last boundary's "
                     "checkpoint byte for byte", probe_shas == {self.probe_sha})
        ledger.op(len(task.labels))
        self.task_slices.append((self.stream_steps, len(task.labels)))
        self.stream_steps += len(task.labels)
        self.inserts += len(task.labels)
        record = _boundary_record(state, dataset, state.global_step, task.task_id, ledger)
        self.records.append(record)
        self.stream_s += time.perf_counter() - t_task - probe_s

        for _ in range(BOUNDARY_EVALS):
            ledger.op()
            t0 = time.process_time()
            engine.evaluate(state, dataset.test_images, dataset.test_labels)
            self.eval_s.append(time.process_time() - t0)
        ledger.check(f"head finite at task {task.task_id}",
                     all(np.isfinite(p.data).all() for p in state.model.head_params().values()))

        shas = []
        for r in range(ROUND_TRIPS):
            ledger.op()
            t0, c0 = time.perf_counter(), time.process_time()
            checkpoint.save_checkpoint(state, self.path, config_text=self.config_text,
                                       records=self.records)
            c1 = time.process_time()
            loaded = checkpoint.load_checkpoint(self.path)
            c2, t2 = time.process_time(), time.perf_counter()
            self.save_s.append(c1 - c0)
            self.load_s.append(c2 - c1)
            if r == 0:
                self.stream_s += t2 - t0
            shas.append(_sha256_file(self.path))
            state = loaded.state
        self.sizes.append(os.path.getsize(self.path))
        ledger.check(f"save(load(save(x))) is byte-identical at task {task.task_id}",
                     len(set(shas)) == 1)
        ledger.check(f"loaded checkpoint keeps the frozen digest at task {task.task_id}",
                     state.frozen_digest == self.state.frozen_digest
                     and engine.frozen_checksums(state) == self.state.frozen_digest)
        again = _boundary_record(state, dataset, state.global_step, task.task_id, ledger)
        ledger.check(f"loaded checkpoint evaluates like memory at task {task.task_id}",
                     again == record)
        self.state, self.records = state, loaded.records
        self.probe, self.probe_sha = checkpoint.load_checkpoint(self.path), shas[-1]

    def finish(self, inject_fault: bool = False) -> None:
        """End-of-stream checks, final evaluations and metrics.jsonl."""
        state, ledger, dataset = self.state, self.ledger, self.dataset
        ledger.check("global_step equals the stream sample count",
                     state.global_step == self.stream_steps)
        if inject_fault:
            next(iter(state.model.backbone_params().values())).data.flat[0] += 1.0
        ledger.check("frozen digest unchanged after the stream",
                     engine.frozen_checksums(state) == state.frozen_digest)

        results = []
        for _ in range(FINAL_EVAL_REPEATS):
            ledger.op()
            t0 = time.process_time()
            results.append(engine.evaluate(state, dataset.test_images, dataset.test_labels))
            self.eval_s.append(time.process_time() - t0)
        ledger.check("repeated full-test evaluations agree", all(r == results[0] for r in results))
        if len(state.seen_classes) == dataset.num_classes:
            ledger.check("full-test evaluation matches the last boundary record",
                         results[0]["top1"] == self.records[-1].top1)

        code_shape = (state.books.s,) + state.model.config.feature_hw
        jsonl, _ = reporting.emit_metrics(self.records, self.metrics_dir,
                                          capacity=state.reservoir.capacity,
                                          code_shape=code_shape,
                                          exemplar_count=len(state.reservoir))
        self.records_sha256 = _sha256_file(jsonl)
        self.evictions = self.inserts - len(state.reservoir)


def _check_records_across_runs(workload: str, seed: int, sha: str, ledger: Ledger) -> None:
    """Same seed at the same source: metrics.jsonl must hash the same in every run.

    The first run of a seed stores the hash; later runs compare with it.
    """
    store = OUT / "records" / source_digest()[:16] / f"{workload}-seed{seed}.sha256"
    if not store.is_file():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(sha + "\n")
    ledger.check("metric records equal every run with this seed",
                 store.read_text().strip() == sha)


def _check_final_top1(workload: str, seed: int, sp: StreamPass, ledger: Ledger) -> list:
    """final_top1 against the workload's floor; returns the known defects seen."""
    top1, floor = sp.records[-1].top1, TOP1_FLOOR[workload]
    ledger.check(f"final_top1 at or above {floor} on seed {REFERENCE_SEED}",
                 top1 >= floor or seed != REFERENCE_SEED)
    if top1 >= floor:
        return []
    defect = f"final_top1 {top1:.3f} below the floor {floor}: training collapsed on this seed"
    print(f"perfbench: known defect: {defect}", file=sys.stderr)
    return [defect]


def _task_ms(sp: StreamPass, stat) -> list:
    """A statistic of the step latency within each task, in ms."""
    return [float(stat(sp.step_s[i:i + n]) * 1e3) for i, n in sp.task_slices]


def _end_to_end(sp: StreamPass, setup_s: list, ledger: Ledger) -> dict:
    steps = np.asarray(sp.step_s) * 1e3
    boundary = [r.top1 for r in sp.records if r.boundary]
    values = {
        "setup_s": float(np.median(setup_s)),
        "step_ms_p50": float(np.median(steps)),
        # 800 or more steps, so 40 or more lie beyond it.
        "step_ms_p95": float(np.percentile(steps, 95)),
        "stream_steps_per_s": sp.stream_steps / sp.stream_s,
        "eval_samples_per_s": float(np.median([len(sp.dataset.test_labels) / t
                                               for t in sp.eval_s])),
        "checkpoint_save_ms": float(np.median(sp.save_s) * 1e3),
        "checkpoint_load_ms": float(np.median(sp.load_s) * 1e3),
        "checkpoint_bytes": sp.sizes[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_top1": boundary[-1],
        "aoc_top1": aoc(boundary),
        "ops_attempted": ledger.attempted,
        "ops_failed": ledger.failed,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def measure(name: str, cfg, text: str, work: Path, ledger: Ledger,
            inject_fault: bool) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics plus the report's counts and samples."""
    setup_s, shas = [], []

    def set_up_once():
        path = work / f"init{len(setup_s)}.ckpt"
        seconds, dataset, stream = set_up(cfg, text, str(path), ledger)
        setup_s.append(seconds)
        shas.append(_sha256_file(path))
        return dataset, stream

    dataset, stream = set_up_once()
    tasks = stream.tasks[1:]
    sp = StreamPass(str(work / "init0.ckpt"), dataset, work, ledger, "stream")
    for i, task in enumerate(tasks):
        sp.run_task(task)
        # The second set-up runs mid-stream, so set-up and stream timings
        # both sample the whole run, not one stretch of it.
        if i == len(tasks) // 2 - 1:
            set_up_once()
    sp.finish(inject_fault)
    ledger.check("set-up repeats write byte-identical checkpoints", len(set(shas)) == 1)
    _check_records_across_runs(name, cfg.seed, sp.records_sha256, ledger)

    report = {
        "known_defects": _check_final_top1(name, cfg.seed, sp, ledger),
        "end_to_end": _end_to_end(sp, setup_s, ledger),
        "counts": {
            "setups": len(setup_s),
            "steps": sp.stream_steps,
            "evaluations": (2 + BOUNDARY_EVALS) * len(tasks) + FINAL_EVAL_REPEATS,
            "checkpoint_round_trips": len(sp.save_s),
            "reservoir_evictions": sp.evictions,
            "checkpoint_bytes_per_boundary": sp.sizes,
            "metrics_jsonl_sha256": sp.records_sha256,
        },
        "samples": {
            "setup_s": setup_s,
            "step_wall_ms_p50": float(np.median(sp.step_wall_s) * 1e3),
            "step_wall_ms_p95": float(np.percentile(sp.step_wall_s, 95) * 1e3),
            "step_ms_p50_by_task": _task_ms(sp, np.median),
            "step_ms_p95_by_task": _task_ms(sp, lambda a: np.percentile(a, 95)),
            "checkpoint_save_ms": [t * 1e3 for t in sp.save_s],
            "checkpoint_load_ms": [t * 1e3 for t in sp.load_s],
            "eval_samples_per_s": [len(dataset.test_labels) / t for t in sp.eval_s],
        },
    }
    names = _bench_metric_names("end_to_end")
    return {k: v for k, v in report["end_to_end"].items() if k in names}, report


def _per_layer(tracer, untraced: StreamPass, traced: StreamPass) -> dict:
    spans = tracer.summary()
    counts = tracer.counts

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    untraced_rate = untraced.stream_steps / untraced.stream_s
    traced_rate = traced.stream_steps / traced.stream_s
    values = {
        "nn.backward_s": (total("nn.backward"), "s"),
        "nn.backward_calls": (calls("nn.backward"), "count"),
        "nn.conv2d_fwd_s": (total("nn.conv2d_fwd"), "s"),
        "nn.conv2d_calls": (calls("nn.conv2d_fwd"), "count"),
        "nn.sgd_step_s": (total("nn.sgd_step"), "s"),
        "nn.adam_step_s": (total("nn.adam_step"), "s"),
        "network.train_offline_s": (total("network.train_offline"), "s"),
        "autoencoder.train_compressor_s": (total("autoencoder.train_compressor"), "s"),
        "quantizer.kmeans_fit_s": (total("quantizer.kmeans_fit"), "s"),
        "quantizer.kmeans_fit_calls": (calls("quantizer.kmeans_fit"), "count"),
        "network.forward_backbone_s": (total("network.forward_backbone"), "s"),
        "engine.encode_sample_s": (total("engine.encode_sample"), "s"),
        "autoencoder.compress_s": (total("autoencoder.compress"), "s"),
        "quantizer.pq_encode_s": (total("quantizer.pq_encode"), "s"),
        "quantizer.pq_encode_vectors": (counts["quantizer.pq_encode_vectors"], "count"),
        "quantizer.pq_decode_s": (total("quantizer.pq_decode"), "s"),
        "quantizer.pq_decode_vectors": (counts["quantizer.pq_decode_vectors"], "count"),
        "autoencoder.decompress_s": (total("autoencoder.decompress"), "s"),
        "engine.crop_s": (total("engine.crop"), "s"),
        "engine.crop_calls": (calls("engine.crop"), "count"),
        "reservoir.insert_s": (total("reservoir.insert"), "s"),
        "reservoir.insert_calls": (calls("reservoir.insert"), "count"),
        "reservoir.evictions": (counts["reservoir.evictions"], "count"),
        "reservoir.sample_s": (total("reservoir.sample"), "s"),
        "reservoir.sampled": (counts["reservoir.sampled"], "count"),
        "checkpoint.save_s": (total("checkpoint.save"), "s"),
        "checkpoint.load_s": (total("checkpoint.load"), "s"),
        "checkpoint.bytes": (traced.sizes[-1], "B"),
        "engine.evaluate_s": (total("engine.evaluate"), "s"),
        "engine.evaluated_samples": (counts["engine.evaluated_samples"], "count"),
        "network.forward_head_s": (total("network.forward_head"), "s"),
        "engine.online_step_s": (total("engine.online_step"), "s"),
        "engine.online_step_self_s": (own("engine.online_step"), "s"),
        "engine.initialize_self_s": (own("engine.initialize"), "s"),
        "datasets.load_dataset_s": (total("datasets.load_dataset"), "s"),
        "reporting.emit_metrics_s": (total("reporting.emit_metrics"), "s"),
        "trace.untraced_steps_per_s": (untraced_rate, "1/s"),
        "trace.traced_steps_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def trace_layers(name: str, cfg, text: str, work: Path, ledger: Ledger,
                 inject_fault: bool) -> tuple[dict, dict]:
    """The traced run: per-layer metrics plus spans, counts and the step breakdown."""
    from spans import Tracer

    tracer = Tracer(f"{name}-seed{cfg.seed}-pid{os.getpid()}-{time.time_ns()}")
    init_path = str(work / "init0.ckpt")
    with tracer.install(), tracer.span("bench.setup"):
        _, dataset, stream = set_up(cfg, text, init_path, ledger)
    # The untraced and traced passes alternate task by task, so both see the
    # same machine conditions and the overhead compares like with like.
    untraced = StreamPass(init_path, dataset, work, ledger, "untraced")
    with tracer.install(), tracer.span("bench.resume"):
        traced = StreamPass(init_path, dataset, work, ledger, "traced")
    for task in stream.tasks[1:]:
        untraced.run_task(task)
        with tracer.install(), tracer.span("bench.task"):
            traced.run_task(task)
    untraced.finish(inject_fault)
    with tracer.install(), tracer.span("bench.finish"):
        traced.finish(inject_fault)
    ledger.check("tracing leaves the metric records unchanged",
                 traced.records_sha256 == untraced.records_sha256)
    _check_records_across_runs(name, cfg.seed, traced.records_sha256, ledger)
    known_defects = _check_final_top1(name, cfg.seed, traced, ledger)

    summary = tracer.summary()
    under_step = tracer.subtree_self("engine.online_step")
    step_total = summary.get("engine.online_step", {}).get("total_s", 0.0)
    trace_path = OUT / "traces" / f"{name}-seed{cfg.seed}.jsonl"
    tracer.write(str(trace_path))
    report = {
        "known_defects": known_defects,
        "counts": {**dict(sorted(tracer.counts.items())),
                   **{f"calls.{k}": v["calls"] for k, v in summary.items()}},
        # Self seconds of every layer under online_step. The step's own self
        # time is what no traced layer accounts for.
        "online_step_breakdown": {
            "online_step_total_s": step_total,
            "unattributed_share": under_step.get("engine.online_step", 0.0) / step_total,
            "self_s": dict(sorted(under_step.items(), key=lambda kv: -kv[1])),
        },
        "spans": summary,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return _per_layer(tracer, untraced, traced), report


def _bench_metric_names(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def run_workload(name: str, seed: int, trace: bool, inject_fault: bool) -> int:
    cfg = parse_config(WORKLOADS[name] + f"seed = {seed}\nclass_order_seed = {seed}\n")
    text = serialize_config(cfg)
    ledger = Ledger()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = {"workload": name, "seed": seed, "trace": trace, "env": environment(seed)}
    metrics: dict = {}
    try:
        if trace:
            metrics, extra = trace_layers(name, cfg, text, work, ledger, inject_fault)
        else:
            metrics, extra = measure(name, cfg, text, work, ledger, inject_fault)
        report.update(extra)
    except Exception:  # report any failure as a failed op, with its traceback
        traceback.print_exc()
        ledger.check("run completed without an exception", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["failures"] = ledger.failures
    for key, m in (report.get("end_to_end") or metrics).items():
        print(f"{name:>14}  {key:<32} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics if correct else {}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each benchmark workload in a fresh process, one at a time, then a table."""
    reports, results = {}, {}
    for name in BENCH_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode not in (0, 1) or len(lines) < 2:
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            continue
        reports[name] = json.loads(lines[-2])["report"]
        results[name] = json.loads(lines[-1])

    print(f"\n{'metric':<32}" + "".join(f"{n:>16}" for n in BENCH_WORKLOADS) + "  unit")
    rows: dict = {}
    for name, report in reports.items():
        for metric, m in (report.get("end_to_end") or results[name]["metrics"]).items():
            rows.setdefault(metric, {"unit": m["unit"]})[name] = m["value"]
    for metric, row in rows.items():
        cells = "".join(f"{row.get(n, float('nan')):>16.6g}" for n in BENCH_WORKLOADS)
        print(f"{metric:<32}{cells}  {row['unit']}")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    # The work of a run is fixed by its workload, so that every count repeats
    # exactly; each workload measures for longer than 10 s on the reference
    # machine. --seconds is accepted for the common benchmark interface.
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one frozen backbone weight before the final digest check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, bool(args.trace), args.inject_fault)


if __name__ == "__main__":
    sys.exit(main())
