"""Whole-system acceptance checks, one test per numbered criterion.

conftest.py turns every test_criterion_NN outcome into a single
"criterion N: PASS/FAIL" line after the run. The expensive five-seed
stream experiments are shared through session fixtures, so the
directional comparisons, the immutability audit, and the step
accounting all read from the same runs.
"""

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
import pytest

from latentreplay.autoencoder import compress, decompress
from latentreplay.cli import main
from latentreplay.config import RunConfig
from latentreplay.datasets import load_dataset
from latentreplay.engine import (
    build_task_stream,
    fit_compressor,
    forward_batched,
    frozen_backbone_study,
    frozen_checksums,
    initialize,
    run_stream,
    train_first_task,
)
from latentreplay.gradsuite import run_suite
from latentreplay.metrics import aoc, boundary_top1, top_k_accuracy
from latentreplay.nn import Tensor, no_grad
from latentreplay.quantizer import pq_decode_batch, pq_encode_batch, reconstruction_mse, train_pq
from latentreplay.reporting import BUDGET_TABLE, budget_line
from latentreplay.reservoir import memory_bytes

SEEDS = range(5)

# wall-clock cost of each session fixture, for the shared budget check
_ELAPSED: dict = {}


# ---------------------------------------------------------------- fixtures


@dataclass
class StreamRun:
    state: object
    log: list  # the run_stream records
    init_sums: dict
    streamed: int


def _stream_run(cfg) -> StreamRun:
    dataset = load_dataset(cfg)
    stream = build_task_stream(dataset, cfg)
    state = initialize(stream.tasks[0], cfg)
    init_sums = frozen_checksums(state)
    log = run_stream(state, stream.tasks[1:], dataset)
    streamed = sum(len(t.labels) for t in stream.tasks[1:])
    return StreamRun(state, log, init_sums, streamed)


@pytest.fixture(scope="session")
def mid_runs():
    """Replay at the intermediate block, default byte budget, 5 seeds."""
    t0 = perf_counter()
    runs = {s: _stream_run(RunConfig(seed=s, class_order_seed=s)) for s in SEEDS}
    _ELAPSED["mid"] = perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def last_runs():
    # same 32 kB of codes: 2000 exemplars of 4x2x2 vs 500 of 4x4x4
    t0 = perf_counter()
    runs = {
        s: _stream_run(
            RunConfig(seed=s, class_order_seed=s, net_replay_block=3, reservoir_capacity=2000)
        )
        for s in SEEDS
    }
    _ELAPSED["last"] = perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def finetune_run():
    """No rehearsal, no feature augmentation: plain online finetuning."""
    t0 = perf_counter()
    run = _stream_run(RunConfig(online_rehearsal_n=0, online_augment=False))
    _ELAPSED["finetune"] = perf_counter() - t0
    return run


# ---------------------------------------------------------- cheap criteria


def test_criterion_01_memory_accounting(capsys):
    t0 = perf_counter()
    for count, shape, shown, decimals in BUDGET_TABLE:
        mb = memory_bytes(count, shape) / 1e6
        assert f"{mb:.{decimals}f}" == shown
        assert budget_line(count, shape, decimals).endswith(f"{shown} MB")
    assert main(["membudget"]) == 0
    out = capsys.readouterr().out
    for count, shape, shown, decimals in BUDGET_TABLE:
        assert budget_line(count, shape, decimals) in out
    assert perf_counter() - t0 < 1.0


# per-step top-1 traces of two published rehearsal baselines on a
# ten-step protocol; their running means are fixed reference points
ICARL_STEPS = [99.3, 97.2, 93.5, 91.0, 87.5, 82.1, 77.1, 72.8, 67.1, 63.5]
REMIND_STEPS = [98.4, 91.6, 87.1, 82.2, 79.7, 77.7, 74.8, 72.8, 72.2, 70.9]


def test_criterion_02_running_mean_fidelity():
    t0 = perf_counter()
    assert abs(aoc(ICARL_STEPS) - 83.1) <= 0.05
    assert abs(aoc(REMIND_STEPS) - 80.7) <= 0.05
    assert perf_counter() - t0 < 1.0


def test_criterion_03_gradient_suite():
    t0 = perf_counter()
    results = run_suite(range(20))
    assert results
    names = {r.name for r in results}
    assert {"classification_loss", "compression_loss"} <= names
    assert max(r.max_rel_err for r in results) <= 1e-3
    assert all(r.passed for r in results)
    assert perf_counter() - t0 < 120.0


def test_criterion_04_quantizer_properties():
    t0 = perf_counter()
    rng = np.random.default_rng(20206)
    latents = rng.normal(size=(10_000, 16, 1, 1)).astype(np.float32)

    errs = []
    for k in (1, 4, 16, 64, 256):
        books = train_pq(latents, s=4, k=k, iters=25, seed=0)
        errs.append(reconstruction_mse(latents, books))
    assert all(a >= b for a, b in zip(errs, errs[1:]))

    # books is the k=256 fit; decoded points must re-encode to the
    # same codes and decode to the same bytes
    codes = pq_encode_batch(latents, books)
    decoded = pq_decode_batch(codes, books)
    again = pq_encode_batch(decoded, books)
    assert np.array_equal(codes, again)
    assert np.array_equal(pq_decode_batch(again, books), decoded)

    corners = np.array(
        [[0.0, 0.0], [0.0, 3.0], [3.0, 0.0], [3.0, 3.0]], dtype=np.float32
    ).reshape(4, 2, 1, 1)
    books4 = train_pq(corners, s=1, k=4, iters=10, seed=0)
    assert reconstruction_mse(corners, books4) == 0.0
    assert perf_counter() - t0 < 120.0


# --------------------------------------------------------- stream criteria


def test_criterion_05_frozen_set_immutable(mid_runs):
    for run in mid_runs.values():
        now = frozen_checksums(run.state)
        assert set(now) == {"backbone", "encoder", "decoder", "codebooks"}
        assert now == run.init_sums
        assert now == run.state.frozen_digest


def test_criterion_06_single_pass_accounting(mid_runs):
    for run in mid_runs.values():
        assert run.streamed == 800  # 8 classes x 100 samples in tasks 2..5
        assert run.state.optim.step_count == run.streamed
        assert run.state.global_step == run.streamed


def test_criterion_07_desk_scale_directions(mid_runs, last_runs, finetune_run):
    mid_cfg = RunConfig()
    last_cfg = RunConfig(net_replay_block=3, reservoir_capacity=2000)
    mid_code = (mid_cfg.pq_s,) + mid_cfg.net_config().feature_hw
    last_code = (last_cfg.pq_s,) + last_cfg.net_config().feature_hw
    assert memory_bytes(mid_cfg.reservoir_capacity, mid_code) == memory_bytes(
        last_cfg.reservoir_capacity, last_code
    )

    # (a) rehearsal beats plain finetuning by at least ten points
    assert boundary_top1(mid_runs[0].log)[-1] >= boundary_top1(finetune_run.log)[-1] + 0.10

    # (b) intermediate-block replay holds up against last-block replay
    wins = sum(
        boundary_top1(mid_runs[s].log)[-1] >= boundary_top1(last_runs[s].log)[-1] for s in SEEDS
    )
    assert wins >= 3

    assert _ELAPSED["mid"] + _ELAPSED["last"] + _ELAPSED["finetune"] <= 600.0


# ----------------------------------------------------- ablation directions


def _compressed_head_accuracies(seed: int) -> dict:
    """Task-1 top-1 through the frozen head after a round trip through a
    deliberately narrow compressor (2 channels, short training), where
    the classifier term has room to matter; keyed by `acae.use_ce`."""
    cfg = RunConfig(seed=seed, class_order_seed=seed, acae_latent_channels=2, acae_epochs=10)
    dataset = load_dataset(cfg)
    first = build_task_stream(dataset, cfg).tasks[0]
    model = train_first_task(first, cfg)
    latents = forward_batched(model.forward_backbone, first.images)
    mask = np.isin(dataset.test_labels, first.classes)
    test_latents = forward_batched(model.forward_backbone, dataset.test_images[mask])

    accs = {}
    for use_ce in (True, False):
        comp = fit_compressor(model, latents, first.labels, replace(cfg, acae_use_ce=use_ce))
        with no_grad():
            recon = decompress(comp, compress(comp, Tensor(test_latents)))
            logits = model.forward_head(recon).data
        accs[use_ce] = top_k_accuracy(logits, dataset.test_labels[mask], k=1)
    return accs


def test_criterion_08_ce_term_direction():
    t0 = perf_counter()
    wins = 0
    for seed in SEEDS:
        accs = _compressed_head_accuracies(seed)
        wins += accs[True] >= accs[False]
    assert wins >= 3
    assert perf_counter() - t0 <= 300.0


def test_criterion_09_frozen_backbone_direction():
    t0 = perf_counter()
    wins = 0
    for seed in SEEDS:
        cfg = RunConfig(seed=seed, dataset_per_class=60, offline_epochs=8)
        accs = frozen_backbone_study(load_dataset(cfg), cfg, [1, 3])
        wins += accs[3] < accs[1]
    assert wins >= 3
    assert perf_counter() - t0 <= 600.0


# ---------------------------------------------------------- repeatability


TINY_CONFIG = (
    "dataset.per_class = 20\n"
    "dataset.test_per_class = 5\n"
    "offline.epochs = 2\n"
    "acae.epochs = 4\n"
    "pq.k = 8\n"
    "reservoir.capacity = 40\n"
    "online.rehearsal_n = 3\n"
)


def test_criterion_10_reproducibility(tmp_path):
    (tmp_path / "cfg.txt").write_text(TINY_CONFIG)

    def run(tag, until=None):
        ckpt = str(tmp_path / f"{tag}.ckpt")
        assert main(["init", "--config", str(tmp_path / "cfg.txt"), "--out", ckpt]) == 0
        args = ["stream", "--checkpoint", ckpt, "--out", str(tmp_path / tag)]
        if until is not None:
            args += ["--until-task", str(until)]
        assert main(args) == 0
        return ckpt

    run("a")
    run("b")
    for name in ("metrics.jsonl", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # interrupt after task 3, resume from the checkpoint, compare
    ckpt = run("part1", until=3)
    assert main(["stream", "--checkpoint", ckpt, "--out", str(tmp_path / "resumed")]) == 0
    for name in ("metrics.jsonl", "summary.csv"):
        assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
