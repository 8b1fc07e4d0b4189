"""Command-line interface.

Subcommands: init, stream, eval, membudget, frozen-study, gradcheck.
Run settings, the seed included, come only from the `--config` file
(defaults apply); flags name files, stop points, the frozen-study block
list and the gradcheck seed count. Exit code 0 on success; failures
print one JSON object to stderr with an error category and return a
category-specific nonzero code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .datasets import load_dataset
from .engine import (
    build_task_stream,
    frozen_backbone_study,
    initialize,
    run_stream,
    seen_class_record,
)
from .errors import ConfigError, LatentReplayError
from .gradsuite import run_suite
from .metrics import aoc, boundary_top1
from .reporting import budget_line, emit_metrics, membudget_lines

_EXIT_CODES = {
    "config": 2,
    "data": 3,
    "shape": 4,
    "contract": 5,
    "checkpoint": 6,
    "internal": 1,
}


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config("")
    with open(path) as fh:
        return parse_config(fh.read())


def _cmd_init(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(cfg)
    stream = build_task_stream(dataset, cfg)
    print("class order:", " ".join(str(c) for t in stream.tasks for c in t.classes))
    state = initialize(stream.tasks[0], cfg)
    records = [seen_class_record(dataset, state, 1, 0)]
    save_checkpoint(state, args.out, records=records)
    print(f"checkpoint written to {args.out}")
    print(f"task 1 top1 {records[0].top1:.4f}")
    return 0


def _cmd_stream(args) -> int:
    if args.until_task < 0:
        raise ConfigError(f"--until-task {args.until_task} is negative")
    bundle = load_checkpoint(args.checkpoint)
    state = bundle.state
    cfg = state.config
    dataset = load_dataset(cfg)
    tasks = build_task_stream(dataset, cfg).tasks
    until = args.until_task if args.until_task else len(tasks)
    todo = [t for t in tasks if state.current_task < t.task_id <= until]

    hook = partial(seen_class_record, dataset)
    records = bundle.records + run_stream(state, todo, hook, eval_every=cfg.online_eval_every)

    out_ckpt = args.out_checkpoint or args.checkpoint
    save_checkpoint(state, out_ckpt, config_text=bundle.config_text, records=records)
    jsonl, csv = emit_metrics(
        records, args.out, capacity=state.reservoir.capacity,
        code_shape=state.reservoir.codes.shape[1:], exemplar_count=len(state.reservoir),
    )
    print(f"metrics written to {jsonl} and {csv}")
    top1 = boundary_top1(records)
    if top1:
        print(f"AOC {aoc(top1):.4f} LAST {top1[-1]:.4f}")
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint).state
    dataset = load_dataset(state.config)
    record = seen_class_record(dataset, state, state.current_task, state.global_step)
    print(json.dumps({
        "task": record.task,
        "seen_classes": record.seen_classes,
        "top1": record.top1,
        "top5": record.top5,
    }))
    return 0


def _cmd_membudget(args) -> int:
    for line in membudget_lines():
        print(line)
    if args.config:
        cfg = _load_config(args.config)
        shape = (cfg.pq_s, *cfg.net_config().feature_hw)
        print("config: " + budget_line(cfg.reservoir_capacity, shape, 3))
    return 0


def _cmd_frozen_study(args) -> int:
    cfg = _load_config(args.config)
    dataset = load_dataset(cfg)
    try:
        blocks = [int(b) for b in args.blocks.split(",")]
    except ValueError:
        raise ConfigError(f"--blocks {args.blocks!r} is not a list of integers") from None
    results = frozen_backbone_study(dataset, cfg, blocks)
    for n in blocks:
        print(f"frozen through block {n}: top1 {results[n]:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} is below 1")
    results = run_suite(range(args.seeds))
    worst = max(results, key=lambda r: r.max_rel_err)
    failed = [r for r in results if not r.passed]
    for r in (failed or [worst]):
        print(f"{r.name} seed {r.seed}: max rel err {r.max_rel_err:.2e} "
              f"({r.checked} checked, {r.skipped_singular} skipped)")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentreplay")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="first-task pipeline, writes a checkpoint")
    p.add_argument("--config", default=None, help="key=value config file (defaults apply)")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.set_defaults(fn=_cmd_init)

    p = sub.add_parser("stream", help="online phase from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="directory for metrics files")
    p.add_argument("--out-checkpoint", default=None, help="defaults to overwriting the input")
    p.add_argument("--until-task", type=int, default=0, help="stop after this task id")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser("eval", help="evaluate a checkpoint on seen classes")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("membudget", help="print the memory accounting table")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_membudget)

    p = sub.add_parser("frozen-study", help="accuracy vs number of frozen blocks")
    p.add_argument("--config", default=None)
    p.add_argument("--blocks", default="0,1,2,3")
    p.set_defaults(fn=_cmd_frozen_study)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LatentReplayError as err:
        print(json.dumps({"error": err.category, "message": str(err)}), file=sys.stderr)
        return _EXIT_CODES.get(err.category, 1)
    except OSError as err:
        print(json.dumps({"error": "io", "message": str(err)}), file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
