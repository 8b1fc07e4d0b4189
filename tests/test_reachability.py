"""Every `def` in the package is run by some command.

One process runs every subcommand under `sys.setprofile`: `init`, `stream --until-task 3`,
`stream` and `eval` on a tiny config of each dataset kind, then `membudget --config`,
`frozen-study`, `gradcheck` and an `init` that the config check refuses. A def no command
runs is either deleted or named in ALLOWED_UNREACHED with its reason; an allowlisted def that
does run fails too, so the list cannot outlive its reasons.
"""

import ast
import json
import struct
import sys
from pathlib import Path

import numpy as np

import latentreplay
from latentreplay import engine
from latentreplay.cli import main
from latentreplay.datasets import gen_synthetic

PACKAGE = Path(latentreplay.__file__).resolve().parent

# dotted def name -> why no command runs it
ALLOWED_UNREACHED = {
    "quantizer.reconstruction_mse": "the planned `inspect` command (ROADMAP item 1) will call it",
}

# 4 tasks (2, 1, 1, 1 classes) of 6 images a class, a 2-channel latent and an 8-row reservoir
# that evicts; each kind adds its own dataset lines
TINY = """\
dataset.classes = 5
dataset.per_class = 6
dataset.test_per_class = 2
split.first_classes = 2
split.steps = 3
net.channels = 2, 4, 4
offline.epochs = 1
acae.epochs = 1
acae.latent_channels = 2
pq.s = 2
pq.k = 8
pq.iters = 2
reservoir.capacity = 8
online.rehearsal_n = 2
online.eval_every = 4
"""


def src_defs() -> dict:
    """(file, first line) -> dotted name of every def in the package. A decorated def's code
    object starts at its first decorator, so that line is its key."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(path, line)] = f"{prefix}.{child.name}"
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, path, f"{prefix}.{child.name}" if named else prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text()), str(path), module)
    return defs


def u1_images(images: np.ndarray) -> np.ndarray:
    return np.round(images * 255).astype(np.uint8)


def write_idx(path: Path, arr: np.ndarray) -> None:
    """`arr` as an unsigned-byte IDX file."""
    head = bytes([0, 0, 0x08, arr.ndim]) + struct.pack(f">{arr.ndim}I", *arr.shape)
    path.write_bytes(head + arr.astype(np.uint8).tobytes())


def tiny_configs(root: Path) -> list:
    """A config file of each dataset kind: synthetic, u1 IDX at 1x16x16, CIFAR-bin at 3x32x32."""
    (root / "idx").mkdir()
    (root / "cifar").mkdir()
    for split, stream, per_class in (("train", 0, 6), ("test", 1, 2)):
        images, labels = gen_synthetic(5, per_class, (1, 16, 16), seed=3, sample_stream=stream)
        write_idx(root / "idx" / f"{split}-images.idx", u1_images(images[:, 0]))
        write_idx(root / "idx" / f"{split}-labels.idx", labels)
        images, labels = gen_synthetic(5, per_class, (3, 32, 32), seed=4, sample_stream=stream)
        records = np.concatenate([labels[:, None], u1_images(images).reshape(len(labels), -1)], 1)
        (root / "cifar" / f"{split}.bin").write_bytes(records.astype(np.uint8).tobytes())
    configs = []
    for kind, lines in (
        ("synthetic", ""),
        ("idx", f"dataset.kind = idx\ndataset.path = {root / 'idx'}\nnet.in_shape = 1, 16, 16\n"),
        ("cifar", f"dataset.kind = cifar-bin\ndataset.path = {root / 'cifar'}\n"
                  "net.in_shape = 3, 32, 32\n"),
    ):
        path = root / f"{kind}.txt"
        path.write_text(TINY + lines)
        configs.append((kind, str(path)))
    return configs


def run_every_command(root: Path) -> list:
    """Each subcommand's argv and exit code, in the order run."""
    configs = tiny_configs(root)
    refused = root / "refused.txt"
    refused.write_text(TINY.replace("pq.k = 8", "pq.k = 0"))
    synthetic = configs[0][1]
    runs = []
    for kind, config in configs:
        ckpt, out = str(root / f"{kind}.ckpt"), str(root / f"{kind}-out")
        runs += [
            (["init", "--config", config, "--out", ckpt], 0),
            (["stream", "--checkpoint", ckpt, "--out", out, "--until-task", "3"], 0),
            (["stream", "--checkpoint", ckpt, "--out", out], 0),
            (["eval", "--checkpoint", ckpt], 0),
        ]
    runs += [
        (["membudget", "--config", synthetic], 0),
        (["frozen-study", "--config", synthetic, "--blocks", "0,1"], 0),
        (["gradcheck", "--seeds", "1"], 0),
        (["init", "--config", str(refused), "--out", str(root / "refused.ckpt")], 2),
    ]
    return [(argv, want, main(argv)) for argv, want in runs]


def test_every_def_in_src_is_run_by_a_command(tmp_path, capsys):
    ran = {}

    def profile(frame, event, arg):
        if event == "call":
            ran[id(frame.f_code)] = frame.f_code  # the value keeps the id from being reused

    engine._class_order.cache_clear()  # a cached call would not run its def
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = run_every_command(tmp_path)
    finally:
        sys.setprofile(previous)

    assert [(argv, got) for argv, want, got in exits if got != want] == []
    (line,) = capsys.readouterr().err.splitlines()  # the refused config's one JSON line
    assert json.loads(line)["error"] == "config"

    defs = src_defs()
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in ran.values()}
    assert set(ALLOWED_UNREACHED) <= set(defs.values()), "an allowlist entry names no def"
    unreached = sorted(name for key, name in defs.items()
                       if key not in reached and name not in ALLOWED_UNREACHED)
    assert unreached == [], f"defs that no command runs: {unreached}"
    allowed_but_run = sorted(name for key, name in defs.items()
                             if key in reached and name in ALLOWED_UNREACHED)
    assert allowed_but_run == [], f"allowlisted defs that a command runs: {allowed_but_run}"
