"""Command-line entry points: train, eval, explain, synth.

Configuration is a plain-text key-value file (``key = value``, ``hp.name``
for hyperparameters, full-line ``#`` comments, each value cast by the type of
its setting); ``--profile`` seeds the hyperparameters and ``--set key=value``
overrides individual entries. Exit codes: 0 success, 1 usage, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import interpret, model
from .autodiff import DegenerateMaskError, NonFiniteError, ShapeError
from .data import DatasetFormatError, DegenerateInputError, SnapshotResolver, SyntheticSpec
from .metrics import MetricError
from .model import CheckpointError, DivergenceError, HyperParams, ModelParams

# the files each command writes into its out directory
CHECKPOINT, EPOCHS, METRICS = "checkpoint.bin", "epochs.csv", "metrics.json"
REPORT, CONFIG = "attention_report.json", "config.cfg"
_WRITES = {
    "train": (CHECKPOINT, EPOCHS, METRICS),
    "explain": (REPORT, *interpret.HEATMAP_FILES),
    "synth": (*data_mod.SYNTHETIC_FILES.values(), CONFIG),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    dataset: str | None = None
    train: str | None = None
    val: str | None = None
    test: str | None = None
    embeddings: str | None = None
    entities: str | None = None
    mode: str = "N+C+E"
    out: str = "run"
    split_seed: int = 0
    hp: HyperParams = None

    def validate_paths(self) -> None:
        if self.dataset is None and not (self.train and self.val and self.test):
            raise UsageError("config needs either 'dataset' or all of train/val/test")
        if self.embeddings is None:
            raise UsageError("config needs an 'embeddings' path")
        for key in ("dataset", "train", "val", "test", "embeddings", "entities"):
            value = getattr(self, key)
            if value is not None:
                _require_file(value, f"configured {key}")
        if self.mode not in model.MODES:
            raise UsageError(f"mode must be one of {model.MODES}, got '{self.mode}'")
        if self.split_seed < 0:
            raise UsageError(f"split_seed must be non-negative, got {self.split_seed}")


def _require_file(path, what: str) -> None:
    if not Path(path).is_file():
        problem = "is not a file" if Path(path).exists() else "does not exist"
        raise DatasetFormatError(f"{what} path {problem}: {path}")


def _check_out(path, is_dir: bool) -> None:
    """Refuse an out path that could not be written: a directory (``is_dir``)
    that exists as anything else, a file that exists as a directory, or
    either under an existing file. So no data is read for a run that could
    not write its results."""
    out = Path(path)
    if is_dir and out.exists() and not out.is_dir():
        raise UsageError(f"out path exists and is not a directory: {out}")
    if not is_dir and out.is_dir():
        raise UsageError(f"out path is a directory: {out}")
    # the nearest existing ancestor is where the missing directories are made
    parent = next((p for p in out.parents if p.exists()), None)
    if parent is not None and not parent.is_dir():
        raise UsageError(f"out path is under a file: {parent}")


def _check_out_dir(path, command: str) -> None:
    """:func:`_check_out` for the directory ``path`` and each file that
    ``command`` writes into it."""
    _check_out(path, is_dir=True)
    for name in _WRITES[command]:
        _check_out(Path(path) / name, is_dir=False)


def _key_value(text: str, where: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep:
        raise UsageError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def parse_config_file(path) -> dict:
    """``key = value`` lines as stripped strings; a line whose first
    non-blank character is ``#`` is a comment."""
    entries = {}
    for line_no, line in data_mod.read_lines(path):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _key_value(stripped, f"{path}:{line_no}")
            entries[key] = value
    return entries


def build_run_config(args) -> RunConfig:
    """Config file entries, then ``--set`` overrides, each cast by the declared
    type of its field (``hp.<name>`` of HyperParams, any other key of
    RunConfig), over the ``--profile`` hyperparameters."""
    entries = {}
    if getattr(args, "config", None):
        _require_file(args.config, "config")
        entries.update(parse_config_file(args.config))
    entries.update(_key_value(text, "--set") for text in getattr(args, "set", None) or [])

    run_values, hp_values = {}, {}
    for key, text in entries.items():
        is_hp = key.startswith("hp.")
        owner, name = (HyperParams, key[3:]) if is_hp else (RunConfig, key)
        try:
            (hp_values if is_hp else run_values)[name] = model.parse_field(owner, name, text)
        except ValueError as e:
            raise UsageError(f"config key '{key}': {e}") from e
    if getattr(args, "mode", None):
        run_values["mode"] = args.mode
    if getattr(args, "out", None):
        run_values["out"] = args.out
    if getattr(args, "seed", None) is not None:
        hp_values["seed"] = args.seed
    hp = HyperParams.profile(args.profile) if getattr(args, "profile", None) else HyperParams()
    config = RunConfig(**run_values, hp=replace(hp, **hp_values))
    try:
        config.hp.validate()
    except ValueError as e:
        raise UsageError(str(e)) from e
    return config


@dataclass
class PreparedData:
    train: list
    val: list
    test: list
    vocab: data_mod.Vocabulary
    embeddings: data_mod.EmbeddingTable


def prepare_data(config: RunConfig, hp: HyperParams) -> PreparedData:
    """Read, resolve, split and encode the corpus into model-ready samples,
    printing a stderr warning for each dataset line skipped."""
    resolver = SnapshotResolver(config.entities) if config.entities else None
    # ids key the samples of explain and its attention report: the first
    # place each id was read, across every dataset file
    seen = {}

    def read(path):
        docs, warnings = data_mod.read_dataset(
            path, max_sentences_per_comment=hp.max_sentences_per_comment)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        for doc in docs:
            where = f"{path}:{doc.line}"
            if doc.doc_id in seen:
                raise DatasetFormatError(f"document id {doc.doc_id!r} appears more than once, "
                                         f"at {seen[doc.doc_id]} and {where}")
            seen[doc.doc_id] = where
        return data_mod.resolve_documents(docs, resolver)

    if config.dataset:
        train_docs, val_docs, test_docs = data_mod.split_dataset(read(config.dataset),
                                                                 config.split_seed)
    else:
        train_docs, val_docs, test_docs = read(config.train), read(config.val), read(config.test)
    docs = train_docs + val_docs + test_docs
    vocab = data_mod.Vocabulary.build(docs)
    table = data_mod.load_embeddings(config.embeddings, vocab)
    if table.dim != hp.embedding_dim:
        raise DatasetFormatError(
            f"{config.embeddings}: embedding file is {table.dim}-dimensional but the model "
            f"expects {hp.embedding_dim}")

    def encode(docs):
        return [data_mod.encode_document(doc, vocab, hp) for doc in docs]

    return PreparedData(encode(train_docs), encode(val_docs), encode(test_docs), vocab, table)


def _write_epoch_csv(path, history) -> None:
    # a metric without a value (pr_auc with no positive label) is an empty field
    with data_mod.atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "grad_norm"]
                        + [f"val_{name}" for name in history[0].val])
        for row in history:
            values = [row.train_loss, row.grad_norm, *row.val.values()]
            writer.writerow([row.epoch] + ["" if v is None else repr(v) for v in values])


def _warn_missing_classes(splits: dict) -> None:
    """One stderr warning per split that lacks a class; training goes on."""
    for split, samples in splits.items():
        present = {s.label for s in samples}
        for label, name in ((0, "real"), (1, "fake")):
            if label not in present:
                print(f"warning: {split} split has no samples with label {label} ({name})",
                      file=sys.stderr)


def cmd_train(args) -> int:
    config = build_run_config(args)
    _check_out_dir(config.out, "train")
    config.validate_paths()
    hp = config.hp
    prepared = prepare_data(config, hp)
    splits = {"train": prepared.train, "val": prepared.val, "test": prepared.test}
    for split, samples in splits.items():
        if not samples:
            raise DatasetFormatError(f"{split} split is empty")
    _warn_missing_classes(splits)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    params = ModelParams.create(hp)
    result = model.train(prepared.train, prepared.val, hp, params,
                         prepared.embeddings, config.mode)
    model.save_checkpoint(out / CHECKPOINT, hp, result.params)
    _write_epoch_csv(out / EPOCHS, result.history)
    test_report = model.evaluate(prepared.test, result.params, prepared.embeddings,
                                 hp, config.mode)
    data_mod.write_json(out / METRICS, test_report)
    print(f"best epoch {result.best_epoch} (val macro-F1 {result.best_val_f1:.4f})")
    print(f"test metrics: {json.dumps(test_report, sort_keys=True)}")
    print(f"artifacts written to {out}")
    return 0


def _load_for_eval(args):
    # the checkpoint fixes the hyperparameters; hp.* lines of a --config file
    # (the training config) are read and then replaced
    for text in args.set or []:
        if text.partition("=")[0].strip().startswith("hp."):
            raise UsageError(f"--set {text}: {args.command} uses the hyperparameters "
                             f"stored in the checkpoint")
    config = build_run_config(args)
    if args.command == "explain":
        _check_out_dir(config.out, "explain")
    elif args.out:
        _check_out(args.out, is_dir=False)
    _require_file(args.checkpoint, "checkpoint")
    config.validate_paths()
    hp, values = model.load_checkpoint(args.checkpoint)
    params = model.restore_params(hp, values)
    config.hp = hp
    prepared = prepare_data(config, hp)
    return hp, params, config, prepared


_SPLITS = ("train", "val", "test", "full")


def _pick_split(prepared: PreparedData, split: str) -> list:
    """Samples of ``split``: train, val, test or full (all three in that
    order). An empty split raises DatasetFormatError naming it."""
    samples = (prepared.train + prepared.val + prepared.test if split == "full"
               else getattr(prepared, split))
    if not samples:
        raise DatasetFormatError(f"split '{split}' has no usable samples")
    return samples


def cmd_eval(args) -> int:
    hp, params, config, prepared = _load_for_eval(args)
    samples = _pick_split(prepared, args.split)
    report = model.evaluate(samples, params, prepared.embeddings, hp, config.mode)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        data_mod.write_json(args.out, report)
    return 0


def cmd_explain(args) -> int:
    hp, params, config, prepared = _load_for_eval(args)
    samples, skipped = _pick_split(prepared, args.split), []
    if args.ids:
        by_id = {s.doc_id: s for s in samples}
        wanted = dict.fromkeys(i.strip() for i in args.ids.split(",") if i.strip())
        skipped = [i for i in wanted if i not in by_id]
        samples = [by_id[i] for i in wanted if i in by_id]
        if not samples:
            raise DatasetFormatError("no requested sample ids were found")
    predictions = model.predict(samples, params, prepared.embeddings, hp, config.mode)
    entries = [interpret.report_entry(s.doc_id, s.label, probs, attn)
               for s, (probs, attn) in zip(samples, predictions)]
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_json(out / REPORT, {"samples": entries, "skipped": skipped})
    written = interpret.export_heatmaps(out, entries)
    print(f"report for {len(entries)} samples "
          f"({len(skipped)} skipped) in {out}")
    for path in written:
        print(f"  {path}")
    return 0


def cmd_synth(args) -> int:
    signal = tuple(s.strip() for s in args.signal.split(",") if s.strip())
    spec = SyntheticSpec(size=args.size, balance=args.balance, signal=signal,
                         seed=args.seed, embedding_dim=args.dim,
                         entity_slots=args.entity_slots)
    hp = replace(HyperParams.profile("synthetic"), embedding_dim=args.dim,
                 max_entity_sentences=args.entity_slots, seed=args.seed)
    for flag, setting in (("--dim", "embedding_dim"), ("--entity-slots", "max_entity_sentences")):
        if getattr(hp, setting) < 1:
            raise UsageError(f"{flag} ({setting}) must be at least 1, got {getattr(hp, setting)}")
    try:
        spec.validate()
        hp.validate()
    except ValueError as e:
        raise UsageError(str(e)) from e
    _check_out_dir(args.out, "synth")
    paths = data_mod.gen_synthetic(spec, args.out)
    config_path = Path(args.out) / CONFIG
    settings = {"dataset": paths["dataset"], "entities": paths["entities"],
                "embeddings": paths["embeddings"], "out": Path(args.out) / "run",
                "split_seed": args.seed}
    settings.update((f"hp.{f.name}", getattr(hp, f.name)) for f in fields(hp))
    with data_mod.atomic_write(config_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in settings.items())
    for name, path in paths.items():
        print(f"{name}: {path}")
    print(f"config: {config_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dualcan",
                     description="dual co-attention fake-news classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--mode", choices=list(model.MODES),
                       help="input ablation mode")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry")

    # eval and explain take the hyperparameters from the checkpoint, so only
    # train has the flags that set them
    p_train = sub.add_parser("train", help="train and write checkpoint + logs")
    common(p_train)
    p_train.add_argument("--profile", choices=list(model.PROFILES),
                         help="hyperparameter profile")
    p_train.add_argument("--seed", type=int, help="override the run seed")

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=_SPLITS, default="test")
    common(p_eval)

    p_explain = sub.add_parser("explain", help="export attention reports and heatmaps")
    p_explain.add_argument("--checkpoint", required=True)
    p_explain.add_argument("--ids", help="comma-separated sample ids (default: whole split)")
    p_explain.add_argument("--split", choices=_SPLITS, default="test")
    common(p_explain)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--size", type=int, default=200)
    p_synth.add_argument("--balance", type=float, default=0.5)
    p_synth.add_argument("--signal", default="news,comments,entities",
                         help="comma-separated cue channels")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--dim", type=int, default=16, help="embedding dimension")
    p_synth.add_argument("--entity-slots", type=int, default=8)
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a saturated GRU gate overflows exp to inf, and 1 / (1 + inf) is its
        # exact limit 0, so an overflow alone is no fault to report
        with np.errstate(over="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DatasetFormatError, DegenerateInputError, CheckpointError, MetricError,
            DegenerateMaskError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NonFiniteError, DivergenceError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
