"""Command line entry points: crossval, train, evaluate, gradcheck.

Exit codes: 0 success, 1 stdout closed before all output was written,
2 config error, 3 data error, 4 numeric failure, 5 gradcheck failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import zip_longest

import numpy as np

from . import model as model_mod
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (SCHEMAS, DataError, DatasetTable, apply_standardization,
                   fit_standardization, load_csv, prepare_dataset, stratified_kfold,
                   stratified_subsample, synth_dataset, utf8_lines)
from .metrics import (EvalReport, aggregate_folds, binary_metrics, confusion,
                      confusion_csv, per_class_metrics, render_report)
from .model import LuNetSpec
from .train import (RmsPropConfig, TrainConfig, fit, standard_gradient_suite)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5

GRADCHECK_TOLERANCE = 1e-4
TRAIN_FOLDS = 5  # `train` holds out fold 0 of this many


class ConfigError(Exception):
    pass


def _int_list(v: str) -> tuple:
    return tuple(int(x) for x in v.split(","))


def _path_list(v: str) -> tuple:
    return tuple(p for p in v.split(",") if p)


def finite_float(v: str) -> float:
    """A finite float (no NaN or +-inf); argparse quotes this name in errors."""
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"{v!r} is not a finite number")
    return x


def _setting(default, key: str, parse, flag: str | None = None, **argparse_kwargs):
    """One run setting, declared once: its default, its config-file key, the
    parser for its text value and, if it has one, its command line flag
    (`argparse_kwargs` override the flag's defaults, `type=parse`)."""
    return field(default=default, metadata={
        "key": key, "parse": parse, "flag": flag, "argparse": argparse_kwargs})


@dataclass
class RunConfig:
    """Every setting of a run. The field metadata is the one table that the
    config file parser, the command line flags and their merge all read."""

    dataset: str = _setting("synthetic", "dataset", str, "--dataset",
                            choices=[*SCHEMAS, "synthetic"])
    data_paths: tuple = _setting((), "data_path", _path_list, "--data-path",
                                 type=str, action="append",
                                 help="dataset CSV; repeat to merge several files")
    task: str = _setting("binary", "task", str, "--task", choices=["binary", "multi"])
    folds: int = _setting(10, "folds", int, "--folds")
    seed: int = _setting(0, "seed", int, "--seed")
    output_dir: str = _setting("out", "output_dir", str, "--output-dir")
    subsample: int = _setting(0, "subsample", int, "--subsample",
                              help="stratified subsample size (0 = all rows)")
    checkpoint: str = _setting("", "checkpoint", str, "--checkpoint")
    levels: tuple = _setting(LuNetSpec.levels, "model.levels", _int_list, "--levels",
                             help="comma-separated level widths")
    final_conv_filters: int = _setting(LuNetSpec.final_conv_filters,
                                       "model.final_conv_filters", int)
    epochs: int = _setting(TrainConfig.epochs, "train.epochs", int, "--epochs")
    batch_size: int = _setting(TrainConfig.batch_size, "train.batch_size", int,
                               "--batch-size")
    learning_rate: float = _setting(RmsPropConfig.learning_rate, "optimizer.learning_rate",
                                    finite_float, "--lr")
    synth_samples: int = _setting(512, "synth.samples", int)
    synth_features: int = _setting(64, "synth.features", int)
    synth_separation: float = _setting(4.0, "synth.separation", finite_float)

    def validate(self):
        if self.dataset not in ("synthetic", *SCHEMAS):
            raise ConfigError(f"unknown dataset {self.dataset!r}")
        if self.task not in ("binary", "multi"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.subsample < 0:
            raise ConfigError(f"subsample must be >= 0, got {self.subsample}")
        if self.dataset == "synthetic":
            for key, value in (("synth.samples", self.synth_samples),
                               ("synth.features", self.synth_features),
                               ("synth.separation", self.synth_separation)):
                if value <= 0:
                    raise ConfigError(f"{key} must be > 0, got {value}")
        else:
            if not self.data_paths:
                raise ConfigError(f"dataset {self.dataset!r} requires --data-path")
            for p in self.data_paths:
                if not os.path.exists(p):
                    raise ConfigError(f"data path does not exist: {p}")


_SETTINGS = {f.metadata["key"]: f for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key=value text with dotted keys; '#' starts a comment line."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(utf8_lines(fh, path), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in _SETTINGS:
                    raise ConfigError(f"{path} line {i}: bad config entry {line!r}")
                f = _SETTINGS[key]
                try:
                    out[f.name] = f.metadata["parse"](value.strip())
                except ValueError as e:
                    raise ConfigError(f"{path} line {i}: bad {key} value: {e}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except DataError as e:  # a byte that is not UTF-8
        raise ConfigError(str(e)) from None
    return out


def build_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = tuple(v) if isinstance(v, list) else v
    return replace(cfg, **overrides)


def _require_folds(table: DatasetTable, folds: int, setting: str):
    """ConfigError naming `setting` and the class if a class has fewer rows
    than `folds`."""
    classes, counts = np.unique(table.labels, return_counts=True)
    i = int(np.argmin(counts))
    if counts[i] < folds:
        raise ConfigError(f"{setting} leaves class {table.class_names[classes[i]]!r} with "
                          f"{counts[i]} samples, fewer than the split's k={folds}")


def load_run_dataset(cfg: RunConfig, folds: int = 0) -> DatasetTable:
    """Raw (unstandardized) encoded table for the configured dataset.

    A table that `synth.samples` or `subsample` leaves with a class of fewer
    rows than the `folds` of the split to come is a config error; a dataset
    file too small on its own is left to the split's DataError.
    """
    if cfg.dataset == "synthetic":
        table = synth_dataset(2 if cfg.task == "binary" else 5, cfg.synth_samples,
                              cfg.synth_features, cfg.synth_separation, cfg.seed)
        _require_folds(table, folds, f"synth.samples = {cfg.synth_samples}")
    else:
        schema = SCHEMAS[cfg.dataset]
        raw = load_csv(cfg.data_paths[0], schema, cfg.data_paths[1:])
        table = prepare_dataset(raw, cfg.task)
    if cfg.subsample and cfg.subsample < table.features.shape[0]:
        fits = np.unique(table.labels, return_counts=True)[1].min() >= folds
        idx = stratified_subsample(table.labels, cfg.subsample, cfg.seed)
        table = replace(table, features=table.features[idx], labels=table.labels[idx])
        if fits:
            _require_folds(table, folds, f"subsample = {cfg.subsample}")
    return table


def _configured(factory, **kwargs):
    """`factory(**kwargs)`, with a ValueError it raises turned into a ConfigError."""
    try:
        return factory(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def make_spec(cfg: RunConfig, input_features: int, num_classes: int,
              init_seed: int) -> LuNetSpec:
    return _configured(
        LuNetSpec, input_features=input_features, num_classes=num_classes,
        levels=cfg.levels, final_conv_filters=cfg.final_conv_filters, init_seed=init_seed)


def predict_batched(model, features: np.ndarray) -> np.ndarray:
    """Predicted class per row, whatever rows share the call. The model runs
    its infer forward in blocks of `lunet.model.INFER_CHUNK` rows, which this
    thread and the `lunet-grads` worker share where the worker can pay."""
    return model.predict_class(features)


def _standardized(table: DatasetTable, mean, std, where: str) -> np.ndarray:
    """`table.features` standardized by `mean` and `std`. A value that is not
    finite is a DataError naming its row (counted from 1 in the table) and
    encoded column, prefixed by `where`; numpy's own overflow warnings are
    off, as this check reports them."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = apply_standardization(table.features, mean, std)
    if not np.isfinite(x).all():
        i, j = divmod(int(np.argmin(np.isfinite(x))), x.shape[1])
        raise DataError(f"{where}row {i + 1}, encoded column {table.encoded_columns[j]!r}: "
                        f"{float(table.features[i, j])!r} standardizes to {float(x[i, j])!r} "
                        f"(mean {float(mean[j])!r}, std {float(std[j])!r})")
    return x


def _train_one_fold(cfg: RunConfig, table: DatasetTable, train_idx, val_idx,
                    fold: int):
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = fit_standardization(table.features, train_idx)
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataError(f"fold {fold}: encoded column {table.encoded_columns[i]!r} overflows "
                        f"standardization (mean {float(mean[i])!r}, std {float(std[i])!r})")
    x = _standardized(table, mean, std, f"fold {fold}: ")
    spec = make_spec(cfg, x.shape[1], len(table.class_names), cfg.seed + fold)
    model = _configured(model_mod.build, spec=spec)
    tc = _configured(TrainConfig, epochs=cfg.epochs, batch_size=cfg.batch_size,
                     seed=cfg.seed + fold)
    oc = _configured(RmsPropConfig, learning_rate=cfg.learning_rate)
    if tc.batch_size > len(train_idx):
        raise ConfigError(f"batch_size {tc.batch_size} exceeds the {len(train_idx)} "
                          f"training rows of fold {fold}")
    fit(model, x[train_idx], table.labels[train_idx], tc, oc,
        log=lambda record: print(
            '{"fold": %d, "epoch": %d, "loss": %.6f, "train_acc": %.6f}' % (fold, *record)))
    try:
        pred = predict_batched(model, x[val_idx])
    except model_mod.NonFiniteProbabilities as e:
        raise FloatingPointError(
            f"fold {fold}: row {int(val_idx[e.row]) + 1} {e.finding}") from None
    cm = confusion(table.labels[val_idx], pred, table.class_names)
    return model, mean, std, cm


def write_report(cfg: RunConfig, report: EvalReport):
    jsonl = render_report(report, "json-lines")
    with open(os.path.join(cfg.output_dir, "report.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(jsonl)
    with open(os.path.join(cfg.output_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report, "csv"))
    for fold, _, cm in report.per_fold:
        path = os.path.join(cfg.output_dir, f"confusion_fold{fold}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(confusion_csv(cm))
    # machine-parseable first, pretty afterwards
    print(jsonl, end="")
    print(render_report(report, "pretty-table"), end="")


def assemble_report(per_fold_cms) -> EvalReport:
    per_fold = [(fold, binary_metrics(cm), cm)
                for fold, cm in per_fold_cms]
    pooled = per_fold_cms[0][1].counts.copy()
    for _, cm in per_fold_cms[1:]:
        pooled += cm.counts
    pooled_cm = replace(per_fold_cms[0][1], counts=pooled)
    return EvalReport(
        per_fold=per_fold,
        aggregate=aggregate_folds([ms for _, ms, _ in per_fold]),
        per_class=per_class_metrics(pooled_cm))


def _make_dirs(*paths: str):
    """Create each directory a command writes to, before any work starts."""
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create directory {path}: {e.strerror}") from None


def cmd_crossval(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.folds < 2:
        raise ConfigError(f"cross-validation needs folds >= 2, got {cfg.folds}")
    _make_dirs(cfg.output_dir)
    table = load_run_dataset(cfg, cfg.folds)
    plan = stratified_kfold(table.labels, cfg.folds, cfg.seed, table.class_names)
    cms = []
    for fold in range(cfg.folds):
        _, _, _, cm = _train_one_fold(cfg, table, plan.train_indices(fold),
                                      plan.val_indices(fold), fold)
        cms.append((fold, cm))
    write_report(cfg, assemble_report(cms))
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    """Single-split convenience: stratified k=TRAIN_FOLDS, fold 0 held out."""
    cfg.validate()
    ckpt_path = cfg.checkpoint or os.path.join(cfg.output_dir, "model.lunet")
    _make_dirs(cfg.output_dir, os.path.dirname(ckpt_path) or os.curdir)
    if os.path.isdir(ckpt_path):
        raise ConfigError(f"checkpoint path is a directory: {ckpt_path}")
    table = load_run_dataset(cfg, TRAIN_FOLDS)
    plan = stratified_kfold(table.labels, TRAIN_FOLDS, cfg.seed, table.class_names)
    model, mean, std, cm = _train_one_fold(
        cfg, table, plan.train_indices(0), plan.val_indices(0), 0)
    save_checkpoint(ckpt_path, model, mean, std, table.class_names,
                    table.encoded_columns, cfg.task)
    write_report(cfg, assemble_report([(0, cm)]))
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    if not cfg.checkpoint:
        raise ConfigError("evaluate requires --checkpoint")
    if not os.path.exists(cfg.checkpoint):
        raise ConfigError(f"checkpoint does not exist: {cfg.checkpoint}")
    cfg.validate()
    _make_dirs(cfg.output_dir)
    model, mean, std, class_names, encoded_columns, task = load_checkpoint(cfg.checkpoint)
    if task != cfg.task:
        raise ConfigError(f"checkpoint was trained for task {task!r}, got {cfg.task!r}")
    table = load_run_dataset(cfg)
    for i, (want, got) in enumerate(zip_longest(encoded_columns, table.encoded_columns)):
        if want != got:
            raise DataError(f"encoded column {i} is {got!r}, but the checkpoint was "
                            f"trained with {want!r} there")
    if class_names != table.class_names:
        raise DataError(f"the data's classes are {table.class_names}, but the checkpoint "
                        f"was trained with {class_names}")
    # standardization always comes from the checkpoint, never re-fit
    x = _standardized(table, mean, std, "")
    pred = predict_batched(model, x)
    cm = confusion(table.labels, pred, class_names)
    write_report(cfg, assemble_report([(0, cm)]))
    return EXIT_OK


def cmd_gradcheck() -> int:
    results = standard_gradient_suite()
    failed = []
    for name, err in results.items():
        ok = err < GRADCHECK_TOLERANCE
        print(f'{{"layer": "{name}", "max_rel_error": {err:.3e}, '
              f'"pass": {"true" if ok else "false"}}}')
        if not ok:
            failed.append(name)
    if failed:
        print(f"gradcheck FAILED: {', '.join(failed)}")
        return EXIT_GRADCHECK
    print("gradcheck passed: all layers within tolerance "
          f"{GRADCHECK_TOLERANCE:g}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lunet",
        description="Hierarchical CNN+LSTM intrusion detector: train, "
                    "cross-validate, evaluate, gradient-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                p.add_argument(f.metadata["flag"], dest=f.name,
                               **{"type": f.metadata["parse"], **f.metadata["argparse"]})
        p.add_argument("--config", help="key=value config file")

    for name in ("crossval", "train", "evaluate"):
        add_common(sub.add_parser(name))
    sub.add_parser("gradcheck")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = _run_command(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early (`lunet train ... | head -1`); what is still
        # buffered goes to devnull, or the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run_command(args) -> int:
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck()
        cfg = build_run_config(args)
        if args.command == "crossval":
            return cmd_crossval(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        return cmd_evaluate(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
