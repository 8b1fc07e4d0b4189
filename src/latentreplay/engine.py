"""Continual-learning engine: initialization, online loop, evaluation.

The run has two phases. Initialization trains the full network on the
first task, fits the channel compressor and the product quantizer on
that task's features, freezes everything up to and including the
quantizer, and fills the replay memory. The online phase then consumes
tasks 2..T one sample at a time: each incoming sample is compressed to
codes, a rehearsal batch is decoded alongside it, and a single SGD step
updates the head. Nothing below the split point ever changes after
initialization; `frozen_checksums` makes that auditable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import CompressorParams, build_compressor, compress, decompress, train_compressor
from .config import RunConfig
from .datasets import Dataset
from .errors import ConfigError, DataError
from .metrics import MetricRecord, MetricsLog, top_k_accuracy
from .network import NetConfig, SplitModel, _block_of, build_model, train_offline
from .nn import OptimState, Tensor, grads_of, no_grad, sgd_step, softmax_cross_entropy, zero_grads
from .quantizer import Codebooks, pq_decode_batch, pq_encode_batch, train_pq
from .reservoir import Reservoir, insert_with_eviction, sample_batch

__all__ = [
    "Task",
    "TaskStream",
    "build_task_stream",
    "EngineState",
    "initialize",
    "encode_sample",
    "feature_random_resized_crop",
    "online_step",
    "run_stream",
    "evaluate",
    "seen_class_record",
    "online_optim",
    "frozen_checksums",
    "frozen_backbone_study",
]


@dataclass(frozen=True)
class Task:
    task_id: int
    classes: tuple
    images: np.ndarray  # stream order
    labels: np.ndarray


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple

    def validate(self) -> None:
        seen: set = set()
        for i, task in enumerate(self.tasks, start=1):
            if task.task_id != i:
                raise DataError(f"task ids must run 1..T in order, got {task.task_id} at position {i}")
            cls = set(task.classes)
            if cls & seen:
                raise DataError(f"task {i} reuses classes {sorted(cls & seen)}")
            seen |= cls
            if task.labels.size and not set(np.unique(task.labels)) <= cls:
                raise DataError(f"task {i} contains labels outside its class set")

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)


def build_task_stream(dataset: Dataset, cfg: RunConfig) -> TaskStream:
    """Split the train set into tasks along a seeded class permutation.

    Task 1 takes the first `split.first_classes` classes of the
    permuted order; the rest are dealt into `split.steps` equal chunks.
    Sample order within a task is shuffled per task from the run seed.
    """
    order_rng = np.random.default_rng(cfg.class_order_seed)
    order = order_rng.permutation(dataset.num_classes)
    chunks = [tuple(order[: cfg.split_first_classes])]
    rest = order[cfg.split_first_classes :]
    step = len(rest) // cfg.split_steps
    if step * cfg.split_steps != len(rest):
        raise ConfigError("split.steps does not divide the remaining classes")
    for i in range(cfg.split_steps):
        chunks.append(tuple(rest[i * step : (i + 1) * step]))

    tasks = []
    for tid, classes in enumerate(chunks, start=1):
        mask = np.isin(dataset.train_labels, classes)
        images = dataset.train_images[mask]
        labels = dataset.train_labels[mask]
        perm = np.random.default_rng((cfg.seed, tid)).permutation(len(labels))
        tasks.append(Task(tid, tuple(int(c) for c in classes), images[perm], labels[perm]))
    stream = TaskStream(tuple(tasks))
    stream.validate()
    return stream


@dataclass
class EngineState:
    config: RunConfig
    model: SplitModel
    compressor: CompressorParams
    books: Codebooks
    reservoir: Reservoir
    optim: OptimState
    rng: np.random.Generator
    current_task: int = 1
    global_step: int = 0
    frozen_digest: dict = field(default_factory=dict)
    seen_classes: set = field(default_factory=set)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, arr in parts:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def frozen_checksums(state: EngineState) -> dict:
    """Byte digests of every parameter group that must stay immutable."""
    model, comp = state.model, state.compressor
    return {
        "backbone": _digest(sorted((k, v.data) for k, v in model.backbone_params().items())),
        "encoder": _digest(sorted((k, v.data) for k, v in comp.encoder_params().items())),
        "decoder": _digest(sorted((k, v.data) for k, v in comp.decoder_params().items())),
        "codebooks": _digest([("centroids", state.books.centroids)]),
    }


def _backbone_latents(model: SplitModel, images: np.ndarray, batch: int = 256) -> np.ndarray:
    outs = []
    with no_grad():
        for start in range(0, len(images), batch):
            outs.append(model.forward_backbone(Tensor(images[start : start + batch])).data)
    return np.concatenate(outs, axis=0)


def initialize(task1: Task, cfg: RunConfig) -> EngineState:
    """First-task pipeline: offline net, compressor, quantizer, memory fill."""
    if len(task1.labels) == 0:
        raise DataError("task 1 is empty")
    net = cfg.net_config()
    model = build_model(net, seed=cfg.seed)
    train_offline(
        model,
        task1.images,
        task1.labels,
        epochs=cfg.offline_epochs,
        lr=cfg.offline_lr,
        momentum=cfg.offline_momentum,
        batch_size=cfg.offline_batch_size,
        augment=cfg.offline_augment,
        rng=np.random.default_rng((cfg.seed, 101)),
    )

    latents = _backbone_latents(model, task1.images)
    comp = build_compressor(net.feature_channels, cfg.acae_latent_channels, seed=cfg.seed + 1)
    train_compressor(
        comp,
        model,
        latents,
        task1.labels,
        epochs=cfg.acae_epochs,
        lr=cfg.acae_lr,
        batch_size=cfg.acae_batch_size,
        use_ce=cfg.acae_use_ce,
        rng=np.random.default_rng((cfg.seed, 102)),
    )

    with no_grad():
        encoded = compress(comp, Tensor(latents)).data
    books = train_pq(encoded, s=cfg.pq_s, k=cfg.pq_k, iters=cfg.pq_iters, seed=cfg.seed + 2)

    for p in model.backbone_params().values():
        p.requires_grad = False
    for p in comp.params.values():
        p.requires_grad = False

    state = EngineState(
        config=cfg,
        model=model,
        compressor=comp,
        books=books,
        reservoir=Reservoir(cfg.reservoir_capacity, (books.s, *net.feature_hw), net.num_classes),
        optim=online_optim(cfg),
        rng=np.random.default_rng((cfg.seed, 103)),
        seen_classes=set(task1.classes),
    )

    codes = pq_encode_batch(encoded, books)
    for i in range(len(task1.labels)):
        insert_with_eviction(state.reservoir, codes[i], int(task1.labels[i]), state.rng)

    state.frozen_digest = frozen_checksums(state)
    return state


def online_optim(cfg: RunConfig) -> OptimState:
    """Fresh head optimizer for the online phase."""
    return OptimState("sgd-momentum", lr=cfg.online_lr, momentum=cfg.online_momentum)


def encode_sample(state: EngineState, x: np.ndarray) -> np.ndarray:
    """Image -> backbone feature -> compressed channels -> (s, H, W) byte codes."""
    if x.shape != tuple(state.model.config.in_shape):
        raise DataError(f"expected image shape {state.model.config.in_shape}, got {x.shape}")
    with no_grad():
        z = state.model.forward_backbone(Tensor(x[None].astype(np.float32)))
        u = compress(state.compressor, z).data
    return pq_encode_batch(u, state.books)[0]


def _decode_codes(state: EngineState, codes: np.ndarray) -> np.ndarray:
    """Byte codes (M, s, H, W) back to head-ready features (M, C, H, W)."""
    u = pq_decode_batch(codes, state.books)
    with no_grad():
        return decompress(state.compressor, Tensor(u)).data


def feature_random_resized_crop(z: np.ndarray, scale: tuple, rng: np.random.Generator) -> np.ndarray:
    """Crop a random sub-window of each (C, H, W) map in z and bilinearly resize it back to H x W.

    The window is real-valued, so its area fraction is drawn exactly
    from `scale` with the aspect ratio kept. scale (1, 1) degenerates to
    the identity and constants stay constant (bilinear weights sum to 1).
    Each map draws its area, top and left in turn, map after map.
    """
    m, c, h, w = z.shape
    lo, hi = scale
    top, left = np.empty(m), np.empty(m)
    crop_h, crop_w = np.empty(m), np.empty(m)
    for i in range(m):
        side = np.sqrt(rng.uniform(lo, hi))
        crop_h[i], crop_w[i] = side * h, side * w
        top[i] = rng.uniform(0.0, (h - 1) - (crop_h[i] - 1))
        left[i] = rng.uniform(0.0, (w - 1) - (crop_w[i] - 1))

    rows = top[:, None] + np.arange(h) * (crop_h[:, None] - 1) / (h - 1)
    cols = left[:, None] + np.arange(w) * (crop_w[:, None] - 1) / (w - 1)
    r0 = np.clip(np.floor(rows).astype(np.int64), 0, h - 1)
    c0 = np.clip(np.floor(cols).astype(np.int64), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0).astype(np.float32)[:, None, :, None]
    fc = (cols - c0).astype(np.float32)[:, None, None, :]

    plane = (np.arange(m * c) * (h * w)).reshape(m, c, 1)

    def corner(r, cc):
        at = (r[:, :, None] * w + cc[:, None, :]).reshape(m, 1, h * w)
        return z.take(plane + at).reshape(m, c, h, w)

    top_rows = corner(r0, c0) * (1 - fc) + corner(r0, c1) * fc
    bot_rows = corner(r1, c0) * (1 - fc) + corner(r1, c1) * fc
    out = top_rows * (1 - fr) + bot_rows * fr
    return out.astype(z.dtype)


def online_step(state: EngineState, x: np.ndarray, y: int) -> EngineState:
    """One stream sample: encode, rehearse, single head update, store.

    A non-finite image or loss raises DataError before the head, the
    reservoir and the step counter change.
    """
    cfg, res = state.config, state.reservoir
    if not (0 <= y < cfg.dataset_classes):
        raise DataError(f"label {y} outside the class universe 0..{cfg.dataset_classes - 1}")
    if not np.isfinite(x).all():
        raise DataError(f"non-finite value in the input image at step {state.global_step}")

    current = encode_sample(state, x)
    idx = sample_batch(
        res, cfg.online_rehearsal_n, state.rng,
        with_replacement=cfg.online_sample_with_replacement,
    )
    feats = _decode_codes(state, np.concatenate([res.codes[idx], current[None]]))
    labels = np.append(res.labels[idx], y)
    if cfg.online_augment:
        crop_range = (cfg.online_crop_min_area, cfg.online_crop_max_area)
        feats = feature_random_resized_crop(feats, crop_range, state.rng)

    head = state.model.head_params()
    zero_grads(head)
    logits = state.model.forward_head(Tensor(feats))
    with np.errstate(invalid="ignore"):  # a non-finite loss is reported just below
        loss, _ = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss.data):
        raise DataError(f"non-finite loss {float(loss.data)} at step {state.global_step}")
    loss.backward()
    sgd_step(head, grads_of(head), state.optim)

    insert_with_eviction(res, current, y, state.rng)
    state.global_step += 1
    state.seen_classes.add(y)
    return state


def run_stream(state: EngineState, tasks, eval_hook=None, eval_every: int = 0) -> MetricsLog:
    """Single pass over tasks 2..T in order; evaluates at each boundary.

    `eval_hook(state, task_id, step, boundary)` may return a
    MetricRecord to append, or None. `eval_every` > 0 adds intra-task
    evaluations every that many steps.
    """
    log = MetricsLog()

    def maybe_add(record):
        if record is not None:
            log.add(record)

    for task in tasks:
        if task.task_id != state.current_task + 1:
            raise DataError(
                f"task {task.task_id} arrived after task {state.current_task}; "
                "stream must present tasks in order"
            )
        state.current_task = task.task_id
        state.seen_classes |= set(task.classes)
        n = len(task.labels)
        for i in range(n):
            online_step(state, task.images[i], int(task.labels[i]))
            if eval_every and eval_hook is not None and state.global_step % eval_every == 0 and i < n - 1:
                maybe_add(eval_hook(state, task.task_id, state.global_step, False))
        if eval_hook is not None:
            maybe_add(eval_hook(state, task.task_id, state.global_step, True))
    return log


def evaluate(state: EngineState, images: np.ndarray, labels: np.ndarray, batch: int = 256) -> dict:
    """Task-agnostic accuracy: full-universe logits, no augmentation."""
    if len(labels) == 0:
        raise DataError("evaluate needs at least one sample")
    logits = []
    with no_grad():
        for start in range(0, len(images), batch):
            logits.append(state.model.forward(Tensor(images[start : start + batch])).data)
    stacked = np.concatenate(logits, axis=0)
    k5 = min(5, state.config.dataset_classes)
    return {
        "top1": top_k_accuracy(stacked, labels, k=1),
        "top5": top_k_accuracy(stacked, labels, k=k5),
    }


def seen_class_record(
    dataset: Dataset, state: EngineState, task_id: int, step: int, boundary: bool = True
) -> MetricRecord:
    """Evaluate on the test samples of every class seen so far.

    With `dataset` bound by functools.partial, this is a `run_stream` eval hook.
    """
    mask = np.isin(dataset.test_labels, sorted(state.seen_classes))
    result = evaluate(state, dataset.test_images[mask], dataset.test_labels[mask])
    return MetricRecord(
        step, task_id, len(state.seen_classes), result["top1"], result["top5"], boundary
    )


def frozen_backbone_study(
    dataset: Dataset,
    first_classes: int,
    blocks,
    net: NetConfig,
    *,
    epochs: int,
    lr: float,
    momentum: float = 0.9,
    batch_size: int = 16,
    augment: bool = True,
    seed: int = 0,
) -> dict:
    """Accuracy cost of freezing a backbone trained on task 1 only.

    For each n in `blocks`: train the full net on the first
    `first_classes` classes, freeze blocks 1..n, train the rest on all
    classes, and report test accuracy. n = 0 skips the first phase
    entirely, which is plain joint training.
    """
    results = {}
    task_mask = dataset.train_labels < first_classes
    for n in blocks:
        model = build_model(net, seed=seed)
        rng = np.random.default_rng((seed, 7, n))
        if n > 0:
            train_offline(
                model,
                dataset.train_images[task_mask],
                dataset.train_labels[task_mask],
                epochs=epochs, lr=lr, momentum=momentum,
                batch_size=batch_size, augment=augment, rng=rng,
            )
        trainable = [k for k in model.params if _block_of(k) is None or _block_of(k) > n]
        train_offline(
            model,
            dataset.train_images,
            dataset.train_labels,
            epochs=epochs, lr=lr, momentum=momentum,
            batch_size=batch_size, augment=augment, rng=rng,
            trainable=trainable,
        )
        with no_grad():
            preds = []
            for start in range(0, len(dataset.test_images), 256):
                out = model.forward(Tensor(dataset.test_images[start : start + 256]))
                preds.append(out.data)
        acc = top_k_accuracy(np.concatenate(preds), dataset.test_labels, k=1)
        results[n] = acc
    return results
