"""Continual-learning engine: initialization, online loop, evaluation.

The run has two phases. Initialization trains the full network on the
first task (`train_first_task`), fits the channel compressor
(`fit_compressor`) and the product quantizer on that task's features,
freezes everything up to and including the quantizer, and fills the
replay memory. The online phase then consumes tasks 2..T one sample at
a time: each incoming sample is compressed to codes, a rehearsal batch
is decoded alongside it, and a single SGD step updates the head.
Frozen means no `nn.training` scope names a parameter below the split
after initialization (`online_step` names the head's alone), which
`frozen_checksums` audits and `split_features` relies on for evaluation.
The frozen side (the task-1 latents and codes, `encode_sample`,
`_decode_codes`, `split_features`) runs on plain arrays, reading the
state's parameters at every call, with PQ's float order unchanged: the
same per-coordinate sums, ties to the lowest index. Only the head's
forward and backward build Tensors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .autoencoder import (
    CompressorParams, build_compressor, compress, compressor_shapes, decompress, train_compressor,
)
from .config import RunConfig
from .datasets import Dataset
from .errors import ConfigError, ContractError, DataError
from .metrics import MetricRecord, label_ranks
from .network import SplitModel, build_model, in_backbone, param_shapes, train_offline
from .nn import OptimState, Tensor, sgd_step, softmax_cross_entropy, training, zero_grads
from .quantizer import Codebooks, pq_decode_batch, pq_encode_batch, train_pq
from .reservoir import Reservoir, insert_with_eviction, sample_batch

__all__ = [
    "Task",
    "TaskStream",
    "task_classes",
    "build_task_stream",
    "EngineState",
    "state_arrays",
    "blank_state",
    "check_state",
    "train_first_task",
    "fit_compressor",
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


class _Rows:
    """`array[rows]` that gathers only the rows an index names; an int reads one row, a view.
    A task's `images`, as `perfbench/run.py` reads `task.images[i]`; seen-class test rows too."""

    def __init__(self, array: np.ndarray, rows: np.ndarray):
        self.array, self.rows = array, rows
        self.shape, self.dtype = (len(rows), *array.shape[1:]), array.dtype

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, key):
        return self.array[self.rows[key]]


@dataclass(frozen=True)
class Task:
    """Task `task_id`: its classes and its `rows` of `dataset`'s train split in stream order;
    `images` reads those rows as indexed and keeps no copy, `labels` is gathered once and kept."""

    task_id: int
    classes: tuple
    dataset: Dataset = field(repr=False)
    rows: np.ndarray

    @property
    def images(self) -> _Rows:
        return _Rows(self.dataset.train_images, self.rows)

    @cached_property
    def labels(self) -> np.ndarray:
        return self.dataset.train_labels[self.rows]


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple


@lru_cache(maxsize=16)  # a new generator is most of the cost of a `check_state` split
def _class_order(seed: int, classes: int) -> tuple:
    return tuple(np.random.default_rng(seed).permutation(classes).tolist())


def task_classes(cfg: RunConfig) -> list:
    """The classes of tasks 1..T from the config alone: the first `split.first_classes` of a
    permutation seeded by `dataset.class_order_seed`, then `split.steps` equal chunks."""
    order = _class_order(cfg.class_order_seed, cfg.dataset_classes)
    first = cfg.split_first_classes
    step, left = divmod(len(order) - first, cfg.split_steps)
    if left or step < 1:
        raise ConfigError("split.steps does not divide the remaining classes")
    return [order[:first]] + [order[i : i + step] for i in range(first, len(order), step)]


def build_task_stream(dataset: Dataset, cfg: RunConfig) -> TaskStream:
    """The tasks of `task_classes(cfg)` as row indices; no image is copied here, nor later
    by a task (`Task`). Sample order is shuffled per task from the run seed."""
    splits, task_of = task_classes(cfg), np.empty(cfg.dataset_classes, dtype=np.intp)
    task_of[np.concatenate(splits)] = np.repeat(np.arange(len(splits)), [len(c) for c in splits])
    ids = task_of[dataset.train_labels]
    ends = np.cumsum(np.bincount(ids, minlength=len(splits)))[:-1]
    per_task = np.split(np.argsort(ids, kind="stable"), ends)  # stable: rows stay ascending
    tasks = []
    for tid, (classes, rows) in enumerate(zip(splits, per_task), start=1):
        rows = rows[np.random.default_rng((cfg.seed, tid)).permutation(len(rows))]
        tasks.append(Task(tid, classes, dataset, rows))
    return TaskStream(tuple(tasks))


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
    frozen_digest: dict = field(default_factory=dict)
    seen_classes: set = field(default_factory=set)

    @property
    def global_step(self) -> int:
        """Online steps taken: the head optimizer's count, the run's one step counter."""
        return self.optim.step_count


def _digest(params: dict) -> str:
    h = hashlib.sha256()
    for name, p in sorted(params.items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data if isinstance(p, Tensor) else p).tobytes())
    return h.hexdigest()


def frozen_checksums(state: EngineState) -> dict:
    """Byte digests of every parameter group that must stay immutable."""
    model, comp = state.model, state.compressor
    return {
        "backbone": _digest(model.backbone_params()),
        "encoder": _digest(comp.encoder_params()),
        "decoder": _digest(comp.decoder_params()),
        "codebooks": _digest({"centroids": state.books.centroids}),
    }


def state_arrays(state: EngineState) -> list:
    """(name, array) of every parameter, optimizer slot, the centroids and the live reservoir
    rows (views, so a loader writes through them), in checkpoint order."""
    arrays = [(f"model.{name}", p.data) for name, p in sorted(state.model.params.items())]
    arrays += [(f"acae.{name}", p.data) for name, p in sorted(state.compressor.params.items())]
    for pname, slots in sorted(state.optim.slots.items()):
        arrays += [(f"optim.{pname}.{key}", buf) for key, buf in sorted(slots.items())]
    res = state.reservoir
    arrays += [("pq.centroids", state.books.centroids), ("reservoir.codes", res.codes[: res.size]),
               ("reservoir.labels", res.labels[: res.size])]
    return arrays


def blank_state(cfg: RunConfig, optim_steps: int, rng: np.random.Generator,
                rows: int = 0) -> EngineState:
    """A zero-filled state with the `state_arrays` of a real one whose online optimizer has
    stepped `optim_steps` times (head velocity slots once that count is positive), `rows` live
    reservoir rows and `rng`; a loader fills it in place. ContractError past the capacity."""
    if rows > cfg.reservoir_capacity:
        raise ContractError(f"{rows} reservoir rows exceed reservoir.capacity = "
                            f"{cfg.reservoir_capacity}")
    net = cfg.net_config()

    def zeros(shapes: dict) -> dict:
        return {name: Tensor(np.zeros(shape, dtype=np.float32)) for name, shape in shapes.items()}

    model = SplitModel(net, zeros(param_shapes(net)))
    optim = online_optim(cfg)
    optim.step_count = optim_steps
    if optim_steps > 0:
        for name, p in model.head_params().items():
            optim.slot(name, "velocity", p.data.shape)
    latent, s = cfg.acae_latent_channels, cfg.pq_s
    reservoir = Reservoir(cfg.reservoir_capacity, (s, *net.feature_hw))
    reservoir.size = rows
    return EngineState(
        config=cfg, model=model, optim=optim, rng=rng, reservoir=reservoir,
        compressor=CompressorParams(zeros(compressor_shapes(net.feature_channels, latent))),
        books=Codebooks(np.zeros((s, cfg.pq_k, latent // s), dtype=np.float32)),
    )


def seen_classes(state: EngineState) -> set:
    """The classes of tasks 1..`current_task`, from the config alone: what a load sets as
    `state.seen_classes`, and what `check_state` holds a live state's to."""
    return set().union(*task_classes(state.config)[: state.current_task])


def check_state(state: EngineState) -> None:
    """Raise ContractError at the first run invariant `state` breaks (finite float arrays, a step
    count >= 0, `current_task` in 1..T, `state.seen_classes` equal to `seen_classes(state)`,
    codes below k, stored labels of seen classes only, frozen digests); writes nothing."""
    arrays = [(name, a) for name, a in state_arrays(state) if a.dtype.kind == "f"]
    if not np.isfinite(np.concatenate([a.ravel() for _, a in arrays])).all():
        bad = [name for name, a in arrays if not np.isfinite(a).all()]
        raise ContractError(f"non-finite values in {bad}")
    if state.global_step < 0:
        raise ContractError(f"step count {state.global_step} is negative")
    last, task = len(task_classes(state.config)), state.current_task
    if not 1 <= task <= last:
        raise ContractError(f"current_task {task} is outside 1..{last}")
    seen = seen_classes(state)
    if state.seen_classes != seen:
        raise ContractError(f"seen_classes {sorted(state.seen_classes)} are not {sorted(seen)}, "
                            f"the classes of tasks 1..{task}")
    res, k = state.reservoir, state.books.k
    top = int(res.codes[: res.size].max(initial=0))
    if top >= k:
        raise ContractError(f"reservoir code {top} out of range for k={k}")
    unseen = sorted(set(np.flatnonzero(np.bincount(res.labels[: res.size])).tolist()) - seen)
    if unseen:
        raise ContractError(f"reservoir labels {unseen} are of classes not seen by task {task}")
    if frozen_checksums(state) != state.frozen_digest:
        raise ContractError("frozen parameter digests do not match stored values")


_FORWARD_BATCH = 32  # beat 16 and 64; at 256 a 16x16 conv patch matrix is 37.7 MB, past L2


_split_entry: list = []  # [images, (net config, backbone digest), features, rows computed]


def split_features(state: EngineState, images) -> np.ndarray | None:
    """Read-only backbone features of a read-only array that owns its bytes, or of a `_Rows` of
    one (else None); each row is computed once while the array, net and backbone bytes hold."""
    array, sel = (images.array, images.rows) if isinstance(images, _Rows) else (images, slice(None))
    if not (isinstance(array, np.ndarray) and array.flags.owndata and not array.flags.writeable):
        return None  # its bytes could change under the same object
    net, entry, backbone = state.model.config, _split_entry, state.model.forward_backbone
    key = (net, _digest(state.model.backbone_params()))
    if not (entry and entry[0] is array and entry[1] == key):  # the forward is float32
        features = np.empty((len(array), net.feature_channels, *net.feature_hw), np.float32)
        entry[:] = [array, key, features, np.zeros(len(array), bool)]
    todo = np.arange(len(array))[sel]
    todo = todo[~entry[3][todo]]  # not np.setdiff1d, whose first call is a 26 ms lazy import
    for rows in (todo[i : i + _FORWARD_BATCH] for i in range(0, len(todo), _FORWARD_BATCH)):
        entry[2][rows], entry[3][rows] = backbone(array[rows]), True  # frozen: arrays, no Tensor
    out = entry[2][sel]
    out.flags.writeable = False
    return out


def _offline_options(cfg: RunConfig) -> dict:
    """`train_offline` keywords from the `offline.*` settings."""
    return dict(
        epochs=cfg.offline_epochs, lr=cfg.offline_lr, momentum=cfg.offline_momentum,
        batch_size=cfg.offline_batch_size, augment=cfg.offline_augment,
    )


def train_first_task(task1: Task, cfg: RunConfig) -> SplitModel:
    """Phase 1: the full network trained offline on task 1 with the `offline.*` settings."""
    if len(task1.labels) == 0:
        raise DataError("task 1 is empty")
    model = build_model(cfg.net_config(), seed=cfg.seed)
    train_offline(
        model, task1.images, task1.labels,
        rng=np.random.default_rng((cfg.seed, 101)), **_offline_options(cfg),
    )
    return model


def fit_compressor(
    model: SplitModel, latents: np.ndarray, labels: np.ndarray, cfg: RunConfig
) -> CompressorParams:
    """Phase 2: the channel compressor fitted on backbone latents with the `acae.*` settings.

    The model comes back bit-identical, so one trained model can serve
    several fits (the `acae.use_ce` ablation does).
    """
    comp = build_compressor(model.config.feature_channels, cfg.acae_latent_channels, cfg.seed + 1)
    train_compressor(
        comp, model, latents, labels,
        epochs=cfg.acae_epochs, lr=cfg.acae_lr, batch_size=cfg.acae_batch_size,
        use_ce=cfg.acae_use_ce, rng=np.random.default_rng((cfg.seed, 102)),
    )
    return comp


def initialize(task1: Task, cfg: RunConfig) -> EngineState:
    """First-task pipeline: offline net, compressor, quantizer, freeze, memory fill.

    A `pq.k` above task 1's position vectors, which k-means fits it to, or a `reservoir.capacity`
    past memory is a ConfigError before any training. Ends with `check_state`, so no command
    writes a state that `load_checkpoint` would refuse.
    """
    n, (h, w) = len(task1.labels), cfg.net_config().feature_hw
    if 0 < n * h * w < cfg.pq_k:  # an empty task is train_first_task's DataError
        raise ConfigError(f"pq.k = {cfg.pq_k} is above the {n * h * w} position vectors of "
                          f"task 1 ({n} samples of a {h}x{w} replay map)")
    reservoir = Reservoir(cfg.reservoir_capacity, (cfg.pq_s, h, w))  # refuses before training
    model = train_first_task(task1, cfg)
    images, b = task1.images, _FORWARD_BATCH  # the backbone is frozen from here on
    latents = np.empty((n, cfg.net_config().feature_channels, h, w), np.float32)  # no stacked copy
    for i in range(0, n, b):
        latents[i : i + b] = model.forward_backbone(images[i : i + b])
    comp = fit_compressor(model, latents, task1.labels, cfg)
    encoded = compress(comp, latents)
    books = train_pq(encoded, s=cfg.pq_s, k=cfg.pq_k, iters=cfg.pq_iters, seed=cfg.seed + 2)
    state = EngineState(
        config=cfg,
        model=model,
        compressor=comp,
        books=books,
        reservoir=reservoir,
        optim=online_optim(cfg),
        rng=np.random.default_rng((cfg.seed, 103)),
        seen_classes=set(task1.classes),
    )

    codes = pq_encode_batch(encoded, books)
    for i in range(len(task1.labels)):
        insert_with_eviction(state.reservoir, codes[i], int(task1.labels[i]), state.rng)

    state.frozen_digest = frozen_checksums(state)
    check_state(state)
    return state


def online_optim(cfg: RunConfig) -> OptimState:
    """Fresh head optimizer for the online phase."""
    return OptimState(lr=cfg.online_lr, momentum=cfg.online_momentum)


def encode_sample(state: EngineState, x: np.ndarray) -> np.ndarray:
    """Image -> backbone feature -> compressed channels -> (s, H, W) byte codes."""
    if x.shape != tuple(state.model.config.in_shape):
        raise DataError(f"expected image shape {state.model.config.in_shape}, got {x.shape}")
    u = compress(state.compressor, state.model.forward_backbone(x[None]))
    return pq_encode_batch(u, state.books)[0]


def _decode_codes(state: EngineState, codes: np.ndarray) -> np.ndarray:
    """Byte codes (M, s, H, W) back to head-ready features (M, C, H, W)."""
    return decompress(state.compressor, pq_decode_batch(codes, state.books))


def feature_random_resized_crop(z: np.ndarray, scale: tuple, rng: np.random.Generator) -> np.ndarray:
    """Crop a random sub-window of each (C, H, W) map in z and bilinearly resize it back to H x W.

    The window is real-valued, so its area fraction is drawn exactly
    from `scale` with the aspect ratio kept. scale (1, 1) degenerates to the identity,
    constants stay constant (bilinear weights sum to 1), a 1-pixel side reads that pixel.
    Each map draws its area, top and left in turn, map after map, in one
    `rng.random((m, 3))`: the doubles and the generator state after it are
    those of 3*m scalar `rng.uniform(low, high)` calls, `low + (high - low) * u`.
    """
    m, c, h, w = z.shape
    lo, hi = scale
    u = rng.random((m, 3))
    side = np.sqrt(lo + (hi - lo) * u[:, 0])
    crop_h, crop_w = side * h, side * w
    top = ((h - 1) - (crop_h - 1)) * u[:, 1]
    left = ((w - 1) - (crop_w - 1)) * u[:, 2]

    rows = top[:, None] + np.arange(h) * (crop_h[:, None] - 1) / max(h - 1, 1)
    cols = left[:, None] + np.arange(w) * (crop_w[:, None] - 1) / max(w - 1, 1)
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
    idx = sample_batch(res, cfg.online_rehearsal_n, state.rng)
    feats = _decode_codes(state, np.concatenate([res.codes[idx], current[None]]))
    labels = np.append(res.labels[idx], y)
    if cfg.online_augment:
        crop_range = (cfg.online_crop_min_area, cfg.online_crop_max_area)
        feats = feature_random_resized_crop(feats, crop_range, state.rng)

    head = state.model.head_params()
    zero_grads(head)
    with training(head), np.errstate(all="ignore"):  # a non-finite loss is reported below
        logits = state.model.forward_head(Tensor(feats))
        loss = softmax_cross_entropy(logits, labels)
        if not np.isfinite(loss.data):
            raise DataError(f"non-finite loss {float(loss.data)} at step {state.global_step} "
                            "(the data, or an online.lr too large)")
        loss.backward()
        sgd_step(head, state.optim)

    insert_with_eviction(res, current, y, state.rng)
    return state


def run_stream(state: EngineState, tasks, dataset: Dataset) -> list[MetricRecord]:
    """Single pass over tasks 2..T in order; `check_state`, then a `seen_class_record` on
    `dataset` at each boundary and every `online.eval_every` > 0 steps within a task.
    A task's classes join `seen_classes` as it starts. Returns the records in order."""
    records, every = [], state.config.online_eval_every
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
            if every and state.global_step % every == 0 and i < n - 1:
                records.append(seen_class_record(dataset, state, boundary=False))
        check_state(state)
        records.append(seen_class_record(dataset, state))
    return records


def _accuracy(model: SplitModel, images, labels: np.ndarray, features=None) -> dict:
    """Task-agnostic top-1 and top-5 of `model`, its backbone on arrays, no augmentation; of its
    head alone on `features`, `images`' split features, if given. Ranked per _FORWARD_BATCH
    chunk: memory does not grow."""
    n, b = len(labels), _FORWARD_BATCH
    if n == 0 or len(images) != n:
        raise DataError(f"evaluate needs one label per image, at least one: {len(images)}, {n}")
    forward, x = (model.forward, images) if features is None else (model.forward_head, features)
    top1 = top5 = 0
    for i in range(0, n, b):
        ranks = label_ranks(forward(x[i : i + b]).data, labels[i : i + b])
        top1 += int(np.count_nonzero(ranks < 1))
        top5 += int(np.count_nonzero(ranks < 5))
    return {"top1": top1 / n, "top5": top5 / n}


def evaluate(state: EngineState, images, labels: np.ndarray) -> dict:
    """`_accuracy` of the state's model, on `split_features` where they are kept."""
    return _accuracy(state.model, images, labels, split_features(state, images))


def seen_class_record(dataset: Dataset, state: EngineState, boundary: bool = True) -> MetricRecord:
    """Evaluate on the test samples of every class seen so far, at the state's task and step."""
    rows = np.flatnonzero(np.isin(dataset.test_labels, sorted(state.seen_classes)))
    result = evaluate(state, _Rows(dataset.test_images, rows), dataset.test_labels[rows])
    return MetricRecord(state.global_step, state.current_task, len(state.seen_classes),
                        result["top1"], result["top5"], boundary)


def frozen_backbone_study(dataset: Dataset, cfg: RunConfig, blocks) -> dict:
    """Accuracy cost of freezing a backbone trained on the first classes only.

    For each n in `blocks`: train the config's net on the labels below
    `split.first_classes`, freeze blocks 1..n, train the rest on
    all classes, and report test accuracy. Both phases use the
    `offline.*` settings and the config's seed. n = 0 skips the first
    phase entirely, which is plain joint training. An n outside
    0..net.num_blocks is a ConfigError before any training.
    """
    bad = [n for n in blocks if not 0 <= n <= cfg.net_num_blocks]
    if bad:
        raise ConfigError(f"blocks {bad} are outside 0..{cfg.net_num_blocks} (net.num_blocks)")
    results = {}
    options = _offline_options(cfg)
    task_mask = dataset.train_labels < cfg.split_first_classes
    for n in blocks:
        model = build_model(cfg.net_config(), seed=cfg.seed)
        rng = np.random.default_rng((cfg.seed, 7, n))
        if n > 0:
            train_offline(
                model, dataset.train_images[task_mask], dataset.train_labels[task_mask],
                rng=rng, **options,
            )
        trainable = [k for k in model.params if not in_backbone(k, n)]
        train_offline(
            model, dataset.train_images, dataset.train_labels,
            rng=rng, trainable=trainable, **options,
        )
        results[n] = _accuracy(model, dataset.test_images, dataset.test_labels)["top1"]
    return results
