"""Command-line front end: build models, train pools, route, generate, analyze.

Five subcommands mirror the library's lifecycle:

* ``init-model`` — create and save a random frozen backbone.
* ``train-adapters`` — make synthetic tasks, train one adapter per task,
  write the adapter files plus a pool manifest and a tasks file (the tasks,
  and which task each adapter was trained for).
* ``route`` — probe a prompt against a pool and print the selection.
* ``generate`` — full pipeline: probe, select, merge, greedy decode.
* ``experiment`` — run one of the harness analyses over a pool and a tasks
  file and write its report; without ``--samples`` each analysis uses its
  own default sample count.

Contract: exit 0 on success, 1 on usage errors (bad flags or flag values),
2 on runtime errors (missing/corrupt files, overflow, training divergence).
Every failure prints exactly one ``error: <kind>: <message>`` line to stderr.
Primary output goes to stdout.  The only environment variable consulted is
``LOGO_THRESHOLDS`` (an alternative calibration file for the pass/fail
summary lines printed by ``experiment``).

Prompts are given as token ids — whitespace-separated integers, or ``@path``
to read the same format from a file.  There is no tokenizer: ids are the
interface.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from typing import Callable, Sequence

from .adapters import AdapterPool, load_manifest, save_adapter, write_manifest
from .backbone import Backbone, ModelConfig, init_backbone, load_backbone, save_backbone
from .engine import EngineConfig, route_and_generate, route_result_to_json
from .errors import LoraRouteError, ValidationError
from .harness.experiments import (
    ablate,
    alignment_analysis,
    selection_counts,
    signal_heatmap,
    timing_sweep,
)
from .harness.reports import ExperimentReport, save_report
from .harness.tasks import load_tasks, make_tasks, save_tasks
from .harness.thresholds import load_thresholds
from .harness.train import train_toy_adapter
from .routing import decision_to_json, select_topk
from .signals import SCORINGS, SignalConfig, probe

DEFAULT_MODEL_CONFIG = "64,4,4,128,256,256"

EXPERIMENT_KINDS = ("heatmap", "counts", "alignment", "ablate", "timing")

#: Accepted spellings per scoring rule.
_SCORING_ALIASES = {"norm": "norm", "entropy": "inverse_entropy", "inverse_entropy": "inverse_entropy"}


class UsageError(Exception):
    """A bad flag or flag value; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures routed through :class:`UsageError`."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _error_slug(exc: Exception) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _one_line(text: str) -> str:
    return " ".join(str(text).split())


def _usage_checked(fn: Callable, *args, **kwargs):
    """Run flag-interpretation code, converting validation failures to usage errors."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc


def _parse_tokens(text: str) -> list[int]:
    """Parse ``--input``: whitespace-separated ints, or ``@file`` of the same."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    parts = text.split()
    if not parts:
        raise UsageError("token list is empty")
    try:
        return [int(p) for p in parts]
    except ValueError:
        bad = next(p for p in parts if not re.fullmatch(r"[+-]?\d+", p))
        raise UsageError(f"malformed token list: {bad!r} is not an integer") from None


def _parse_model_config(text: str) -> ModelConfig:
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(
            "--config takes 6 comma-separated integers: "
            "d_model,n_blocks,n_heads,d_ff,vocab_size,max_seq_len"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--config fields must be integers, got {text!r}") from None
    return _usage_checked(ModelConfig, *numbers)


def _scoring(name: str) -> str:
    if name not in _SCORING_ALIASES:
        raise UsageError(f"--scoring must be one of {sorted(set(_SCORING_ALIASES))}, got {name!r}")
    return _SCORING_ALIASES[name]


def _signal_config(args: argparse.Namespace) -> SignalConfig:
    return _usage_checked(
        SignalConfig,
        target_block=args.target_block,
        token_policy=args.token_policy,
        scoring=_scoring(args.scoring),
    )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return _usage_checked(EngineConfig, signal=_signal_config(args), k=args.k)


def _load_pool(model_path: str, manifest_path: str) -> tuple[Backbone, AdapterPool]:
    backbone = load_backbone(model_path)
    pool = load_manifest(manifest_path, backbone.config)
    return backbone, pool


def _add_signal_flags(p: argparse.ArgumentParser, k_default: int = 3) -> None:
    p.add_argument("--k", type=int, default=k_default, help="adapters kept by selection")
    p.add_argument(
        "--scoring",
        default="norm",
        help="signal scoring rule: norm or entropy (alias inverse_entropy)",
    )
    p.add_argument(
        "--target-block",
        type=int,
        default=0,
        help="block whose incoming projection feeds the signals",
    )
    p.add_argument(
        "--token-policy",
        default="first",
        choices=("first", "last", "mean"),
        help="which token position's response is scored",
    )


# -- subcommands -----------------------------------------------------------------


def cmd_init_model(args: argparse.Namespace) -> int:
    config = _parse_model_config(args.config)
    backbone = _usage_checked(init_backbone, config, args.seed)
    save_backbone(backbone, args.out)
    print(f"wrote {args.out} sha256={backbone.content_hash()[:12]}")
    return 0


def cmd_train_adapters(args: argparse.Namespace) -> int:
    if args.tasks < 1:
        raise UsageError(f"--tasks must be >= 1, got {args.tasks}")
    backbone = load_backbone(args.model)
    if args.rank > backbone.config.d_model:
        raise UsageError(
            f"--rank {args.rank} exceeds model d_model {backbone.config.d_model}"
        )
    tasks = _usage_checked(
        make_tasks,
        args.tasks,
        backbone.config.vocab_size,
        band_width=args.band_width,
        seed=args.task_seed,
        in_band_prob=args.in_band_prob,
        anchor_prob=args.anchor_prob,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    labels: dict[str, str] = {}
    filenames: list[str] = []
    for i, task in enumerate(tasks):
        adapter = train_toy_adapter(
            backbone,
            task,
            rank=args.rank,
            steps=args.steps,
            lr=args.lr,
            seed=args.seed + i,
            weight_decay=args.weight_decay,
            quiet_weight=args.quiet_weight,
            length_jitter=args.length_jitter,
        )
        filename = f"{adapter.id}.lgad"
        save_adapter(adapter, os.path.join(args.out_dir, filename))
        labels[adapter.id] = task.task_id
        filenames.append(filename)
        print(f"trained {adapter.id} for {task.task_id}")
    write_manifest(os.path.join(args.out_dir, "manifest.txt"), filenames)
    save_tasks(os.path.join(args.out_dir, "tasks.json"), tasks, labels)
    print(f"wrote {len(filenames)} adapters + manifest.txt + tasks.json to {args.out_dir}")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    tokens = _parse_tokens(args.input)
    config = _engine_config(args)
    backbone, pool = _load_pool(args.model, args.pool)
    report = probe(backbone, pool, tokens, config.signal)
    decision = select_topk(report, config.k)
    if args.json:
        extra = {"all_scores": report.scores()} if args.explain else None
        print(decision_to_json(decision, extra=extra))
        return 0
    for rank, sel in enumerate(decision.selected, start=1):
        print(f"{rank}. {sel.adapter_id} score={sel.score!r} weight={sel.weight!r}")
    if args.explain:
        for adapter_id, score in report.scores().items():
            print(f"score {adapter_id} {score!r}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    tokens = _parse_tokens(args.input)
    if args.max_new < 0:
        raise UsageError(f"--max-new must be >= 0, got {args.max_new}")
    config = _engine_config(args)
    backbone, pool = _load_pool(args.model, args.pool)
    result = route_and_generate(
        backbone, pool, tokens, config, max_new=args.max_new, eos_token=args.eos
    )
    if result.output_tokens:
        print(" ".join(str(t) for t in result.output_tokens))
    if args.timings:
        print(route_result_to_json(result))
    return 0


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _experiment_summary(kind: str, report: ExperimentReport) -> str:
    """One stdout line checking the report against the active thresholds."""
    t = load_thresholds()
    if kind == "heatmap":
        grid = report.grid
        if len(report.row_labels) == len(report.col_labels):
            diag = sum(
                1 for i in range(grid.shape[1]) if int(grid[:, i].argmax()) == i
            ) / grid.shape[1]
            ok = diag >= t["heatmap_diagonal_fraction_min"]
            return (
                f"summary: diagonal_fraction={diag:.3f} "
                f"threshold={t['heatmap_diagonal_fraction_min']} "
                f"status={'pass' if ok else 'fail'}"
            )
        return f"summary: grid={grid.shape[0]}x{grid.shape[1]} status=n/a"
    if kind == "counts":
        mass = float(report.grid.sum())
        expected = report.metadata["n_samples"] * min(
            int(report.metadata["k"]), len(report.row_labels)
        )
        ok = mass == expected
        return f"summary: count_mass={mass:.0f} expected={expected} status={'pass' if ok else 'fail'}"
    if kind == "alignment":
        rho = report.metadata["spearman"]
        if rho is None:
            return "summary: spearman=undefined status=n/a"
        ok = rho >= t["alignment_spearman_min"]
        return (
            f"summary: spearman={rho:.4f} threshold={t['alignment_spearman_min']} "
            f"status={'pass' if ok else 'fail'}"
        )
    if kind == "ablate":
        spread = float(report.metadata["spread"])
        if report.metadata["axis"] == "token_policy":
            limit = t["policy_spread_points_max"] / 100.0
            ok = spread <= limit
            return f"summary: spread={spread:.3f} threshold={limit} status={'pass' if ok else 'fail'}"
        return f"summary: spread={spread:.3f} status=n/a"
    records = report.records
    if len(records) >= 2:
        first, last = records[0], records[-1]
        ok = last["routed_ms_per_token"] < first["routed_ms_per_token"]
        return (
            f"summary: routed_ms_per_token {first['routed_ms_per_token']:.3f}"
            f"@{first['length']} -> {last['routed_ms_per_token']:.3f}@{last['length']} "
            f"status={'pass' if ok else 'fail'}"
        )
    return "summary: single length, no comparison status=n/a"


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    backbone, pool = _load_pool(args.model, args.pool)
    tasks, labels = load_tasks(args.tasks_file)
    if not tasks:
        raise UsageError(f"tasks file {args.tasks_file} holds no tasks")
    by_id = {t.task_id: t for t in tasks}
    if args.task is not None and args.task not in by_id:
        raise UsageError(f"--task {args.task!r} not in tasks file (have {sorted(by_id)})")
    one_task = by_id[args.task] if args.task is not None else tasks[0]
    sampling = {"prompt_len": args.prompt_len, "seed": args.seed}
    if args.samples is not None:
        sampling["n_samples"] = args.samples

    kind = args.kind
    if kind == "heatmap":
        report = signal_heatmap(backbone, pool, tasks, config.signal, **sampling)
    elif kind == "counts":
        report = selection_counts(backbone, pool, one_task, config, **sampling)
    elif kind == "alignment":
        report = alignment_analysis(backbone, pool, tasks, labels, config, **sampling)
        report = dataclasses.replace(
            report, metadata={**report.metadata, "thresholds": load_thresholds()}
        )
    elif kind == "ablate":
        if args.axis is None or args.values is None:
            raise UsageError("--kind ablate requires --axis and --values")
        if args.axis == "token_policy":
            values: list[object] = [v for v in args.values.split(",") if v]
        else:
            values = list(_int_list(args.values, "--values"))
        report = _usage_checked(
            ablate, backbone, pool, tasks, args.axis, values, config, **sampling
        )
    else:  # timing
        lengths = _int_list(args.lengths, "--lengths")
        report = _usage_checked(
            timing_sweep,
            backbone, pool, one_task, lengths, config,
            prompt_len=args.prompt_len, seed=args.seed, repeats=args.repeats,
        )
    save_report(report, args.out)
    print(f"wrote {kind} report to {args.out}")
    print(_experiment_summary(kind, report))
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loraroute",
        description="Per-request selection and merging of low-rank adapters.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("init-model", help="create and save a random frozen backbone")
    p.add_argument(
        "--config",
        default=DEFAULT_MODEL_CONFIG,
        help="d_model,n_blocks,n_heads,d_ff,vocab_size,max_seq_len "
        f"(default {DEFAULT_MODEL_CONFIG})",
    )
    p.add_argument("--seed", type=int, default=7, help="weight init seed")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_init_model)

    p = sub.add_parser(
        "train-adapters",
        help="make synthetic tasks and train one adapter per task",
    )
    p.add_argument("--model", required=True, help="backbone file")
    p.add_argument("--tasks", type=int, required=True, help="number of tasks/adapters")
    p.add_argument("--rank", type=int, default=4, help="adapter rank")
    p.add_argument("--steps", type=int, default=450, help="training steps per adapter")
    p.add_argument("--seed", type=int, default=100, help="base seed; adapter i uses seed+i")
    p.add_argument("--out-dir", required=True, help="directory for adapters + manifest + tasks")
    p.add_argument("--lr", type=float, default=0.3, help="learning rate")
    p.add_argument("--band-width", type=int, default=2, help="task band width in tokens")
    p.add_argument("--in-band-prob", type=float, default=1.0, help="in-band token probability")
    p.add_argument("--anchor-prob", type=float, default=0.75, help="anchor repetition probability")
    p.add_argument("--task-seed", type=int, default=11, help="task generation seed")
    p.add_argument("--weight-decay", type=float, default=0.01, help="L2 decay on factors")
    p.add_argument("--quiet-weight", type=float, default=0.01, help="off-task silence penalty weight")
    p.add_argument("--length-jitter", type=int, default=1, help="prompt length jitter during training")
    p.set_defaults(func=cmd_train_adapters)

    p = sub.add_parser("route", help="probe a prompt and print the adapter selection")
    p.add_argument("--model", required=True, help="backbone file")
    p.add_argument("--pool", required=True, help="pool manifest file")
    p.add_argument("--input", required=True, help="token ids, or @file")
    _add_signal_flags(p)
    p.add_argument("--json", action="store_true", help="print the decision as JSON")
    p.add_argument("--explain", action="store_true", help="also print every adapter's raw score")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("generate", help="route, merge, and greedily decode")
    p.add_argument("--model", required=True, help="backbone file")
    p.add_argument("--pool", required=True, help="pool manifest file")
    p.add_argument("--input", required=True, help="token ids, or @file")
    _add_signal_flags(p)
    p.add_argument("--max-new", type=int, default=16, help="tokens to generate")
    p.add_argument("--eos", type=int, default=None, help="stop token id")
    p.add_argument("--timings", action="store_true", help="also print the full result record")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="run a harness analysis and write its report")
    p.add_argument("--kind", required=True, choices=EXPERIMENT_KINDS, help="analysis to run")
    p.add_argument("--model", required=True, help="backbone file")
    p.add_argument("--pool", required=True, help="pool manifest file")
    p.add_argument("--tasks-file", required=True, help="tasks file from train-adapters")
    p.add_argument("--out", required=True, help="report output path (CSV or JSON by kind)")
    _add_signal_flags(p)
    p.add_argument("--samples", type=int, default=None, help="samples per measurement")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--prompt-len", type=int, default=12, help="prompt length in tokens")
    p.add_argument("--task", default=None, help="task id for counts/timing (default: first)")
    p.add_argument(
        "--axis", default=None, choices=("token_policy", "k", "target_block"),
        help="ablate: swept knob",
    )
    p.add_argument("--values", default=None, help="ablate: comma-separated axis values")
    p.add_argument(
        "--lengths", default="10,50,100,200", help="timing: comma-separated generation lengths"
    )
    p.add_argument("--repeats", type=int, default=3, help="timing: repeats per measurement")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and --version exit through argparse
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        print("error: usage: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {_one_line(exc)}", file=sys.stderr)
        return 1
    except LoraRouteError as exc:
        print(f"error: {_error_slug(exc)}: {_one_line(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {_one_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
