"""The benchmark's three workloads.

Each workload builds its inputs from the seed (untimed), runs operations in a
closed loop from one client until the time is up, checks the outputs against
the generator's truth and, in a traced run, turns the recorded spans into the
per-layer metrics. Every workload runs against `lunet` from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from spans import Tracer, median

from lunet import checkpoint, cli, data, layers, model, train

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7
BATCH = 32
PREDICT_CHUNK = 256  # cli.predict_batched's chunk size
FOLDS = 10
CLASS_NAMES = ["normal", "attack"]


@dataclass(frozen=True)
class Scale:
    levels: tuple
    final_conv_filters: int
    train_rows: int
    train_epochs: int
    eval_rows: int
    ingest_rows: tuple  # (KDDTrain+-like, KDDTest+-like)


SCALES = {
    # the paper's widths; ingest at the real NSL-KDD file sizes
    "full": Scale((64, 128, 256), 256, 128, 18, 1024, (gen.TRAIN_ROWS, gen.TEST_ROWS)),
    # narrow levels and few rows, for the smoke test
    "tiny": Scale((8, 16, 16), 16, 96, 12, 256, (600, 200)),
}

# per-layer metric names: model layers map onto these groups
LAYER_GROUPS = tuple(f"level{k}.{kind}" for k in range(3)
                     for kind in ("conv", "pool", "bn", "lstm")) + ("head.conv", "other")
PER_LAYER = (
    [f"layers.{g}.{d}_ms" for d in ("fwd", "bwd") for g in LAYER_GROUPS]
    + ["layers.gflop_per_step", "layers.gflop_s",
       "model.forward_ms", "model.backward_ms", "model.predict_ms",
       "train.step_ms", "train.loss_ms", "train.optimizer_ms", "train.self_ms",
       "train.steps", "train.nonfinite_steps", "train.lstm_share", "train.acc",
       "data.load_csv_s", "data.prepare_s", "data.kfold_s", "data.standardize_s",
       "data.rows", "data.bytes",
       "checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes",
       "metrics.confusion_ms", "metrics.report_ms",
       "cli.predict_batched_s", "cli.write_report_ms", "cli.self_ms",
       "trace.overhead_s"])
UNITS = {"gflop_per_step": "GFLOP", "gflop_s": "GFLOP/s", "steps": "count",
         "nonfinite_steps": "count", "lstm_share": "fraction", "acc": "fraction",
         "rows": "count", "bytes": "bytes"}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last in UNITS:
        return UNITS[last]
    return "ms" if last.endswith("_ms") else "s"


def layer_group(layer_name: str) -> str:
    level, kind = layer_name.split(".")
    if kind in ("conv", "pool", "bn", "lstm") and (level.startswith("level") or kind == "conv"):
        return layer_name
    return "other"


def gemm_flops(layer, shape) -> int:
    """Exact flop count (2 per multiply-add) of the matrix products one
    forward call makes on an input of `shape`; backward makes twice as many
    (one product for the input gradient, one for the weight gradient)."""
    if isinstance(layer, layers.Conv1D):
        b, length, c_in = shape
        return 2 * b * (length - layer.m + 1) * c_in * layer.c_out * layer.m
    if isinstance(layer, layers.LSTM):
        b, length, d = shape
        return 2 * b * length * 4 * (d * layer.cells + layer.cells * layer.cells)
    if isinstance(layer, layers.Dense):
        return 2 * shape[0] * layer.in_dim * layer.out_dim
    return 0


@dataclass
class Checks:
    """Named output checks; each records how many operations passed and failed."""

    results: dict = field(default_factory=dict)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        entry = self.results.setdefault(name, {"pass": 0, "fail": 0, "detail": ""})
        entry["pass" if ok else "fail"] += 1
        if detail and (not ok or not entry["detail"]):
            entry["detail"] = detail
        return ok


@dataclass
class Op:
    """One timed operation: its wall time, throughput samples in rows/s and
    how many of its sub-operations were attempted and failed."""

    wall: float
    rates: list
    attempted: int
    failed: int


# ---- instrumentation ------------------------------------------------------

def instrument_model(tracer: Tracer, m, before_forward=None):
    """Spans around the model's forward/backward/predict and every layer's
    forward/backward, with the GEMM flops each call makes."""
    last_shape = {}
    for layer in m.layers:
        def fwd_attrs(args, layer=layer):
            last_shape[layer.name] = args[0].shape
            return {"flops": gemm_flops(layer, args[0].shape)}

        def bwd_attrs(args, layer=layer):
            return {"flops": 2 * gemm_flops(layer, last_shape[layer.name])}

        tracer.wrap(layer, "forward", f"layers.{layer.name}.fwd", before=fwd_attrs)
        tracer.wrap(layer, "backward", f"layers.{layer.name}.bwd", before=bwd_attrs)
    tracer.wrap(m, "forward", "model.forward", before=before_forward)
    tracer.wrap(m, "backward", "model.backward")
    tracer.wrap(m, "predict_class", "model.predict")


def instrument_cli(tracer: Tracer):
    """Spans around every call `cli.cmd_evaluate` makes into other modules."""
    def loaded(attrs, args, result):
        attrs["bytes"] = os.path.getsize(args[0])
        instrument_model(tracer, result[0])

    tracer.wrap(cli, "load_checkpoint", "checkpoint.load", after=loaded)
    _instrument_data(tracer, cli)
    tracer.wrap(cli, "apply_standardization", "data.standardize")
    tracer.wrap(cli, "predict_batched", "cli.predict_batched")
    tracer.wrap(cli, "confusion", "metrics.confusion")
    tracer.wrap(cli, "write_report", "cli.write_report")
    for fn in ("binary_metrics", "aggregate_folds", "per_class_metrics",
               "render_report", "confusion_csv"):
        tracer.wrap(cli, fn, "metrics.report")


def _instrument_data(tracer: Tracer, namespace):
    def parsed(attrs, args, result):
        paths = [args[0], *(args[2] if len(args) > 2 else ())]
        attrs.update(rows=result.n_rows, bytes=sum(os.path.getsize(p) for p in paths))

    tracer.wrap(namespace, "load_csv", "data.load_csv", after=parsed)
    tracer.wrap(namespace, "prepare_dataset", "data.prepare")


# ---- span analysis --------------------------------------------------------

def per_op_sums(tracer: Tracer, op_name: str, select) -> list[float]:
    """For each span named `op_name`, the summed duration of the spans under
    it that `select(name)` accepts, in seconds."""
    owner = tracer.roots_under(op_name)
    sums = {sid: 0.0 for sid in tracer.named(op_name)}
    for sid, root in owner.items():
        if sid != root and select(tracer.spans[sid][0]):
            sums[root] += tracer.duration(sid)
    return list(sums.values())


def layer_metrics(tracer: Tracer, op_name: str) -> dict:
    """Per-group layer forward/backward ms and GEMM rate, medians over ops."""
    out = {}
    for direction in ("fwd", "bwd"):
        for g in LAYER_GROUPS:
            sums = per_op_sums(
                tracer, op_name,
                lambda n: (n.startswith("layers.") and n.endswith("." + direction)
                           and layer_group(n[7:-4]) == g))
            out[f"layers.{g}.{direction}_ms"] = 1e3 * median(sums)
    owner = tracer.roots_under(op_name)
    flops = {sid: 0 for sid in tracer.named(op_name)}
    busy = {sid: 0.0 for sid in flops}
    for sid, root in owner.items():
        name, _, _, _, attrs = tracer.spans[sid]
        if name.startswith("layers."):
            flops[root] += attrs["flops"]
            busy[root] += tracer.duration(sid)
    out["layers.gflop_per_step"] = median(f / 1e9 for f in flops.values())
    out["layers.gflop_s"] = median(flops[s] / 1e9 / busy[s] for s in flops if busy[s] > 0)
    return out


def durations(tracer: Tracer, name: str) -> list[float]:
    return [tracer.duration(sid) for sid in tracer.named(name)]


def attr_values(tracer: Tracer, name: str, key: str) -> list:
    return [tracer.spans[sid][4][key] for sid in tracer.named(name)]


# ---- workloads ------------------------------------------------------------

class Workload:
    name = ""
    min_ops = 3  # fewest timed operations per run, so the median has a middle

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.checks = Checks()

    def spec(self, init_seed: int) -> model.LuNetSpec:
        return model.LuNetSpec(input_features=len(gen.encoded_columns()),
                               num_classes=len(CLASS_NAMES), levels=self.scale.levels,
                               final_conv_filters=self.scale.final_conv_filters,
                               init_seed=init_seed)

    def op(self, tracer: Tracer | None) -> Op:
        raise NotImplementedError

    def warm_up(self):
        """One untimed pass over the hot path, so allocator and page-cache
        warm-up is not timed (set-up time is measured on its own)."""

    def instrument(self, tracer: Tracer):
        """Wrap the module-level calls this workload makes, once per run."""

    def finish(self, ops: list[Op]):
        """Output checks that need every operation's result."""

    def info(self) -> dict:
        """Further end-to-end figures, name -> (value, unit), printed but unbounded."""
        return {}

    def traced_metrics(self, tracer: Tracer) -> dict:
        raise NotImplementedError


class TrainPaper(Workload):
    """`train.fit` at the paper's widths on an in-memory standardized matrix,
    then one checkpoint save, as `lunet train` does."""

    name = "train-paper"
    min_ops = 1  # one operation already holds 18 epochs, each a throughput sample

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rows = gen.make_rows(scale.train_rows, seed)
        raw = gen.encode(rows)
        self.mean, self.std = gen.fit_standardization(raw)
        self.x = gen.standardize(raw, self.mean, self.std)
        self.y = gen.binary_labels(rows)
        self.majority = max(self.y.mean(), 1.0 - self.y.mean())
        self.steps = scale.train_epochs * (scale.train_rows // BATCH)
        self.accs: list[float] = []
        np.save(workdir / "warmup_x.npy", self.x[:BATCH])
        np.save(workdir / "warmup_y.npy", self.y[:BATCH])
        with open(workdir / "spec.json", "w", encoding="utf-8") as fh:
            json.dump(self.spec(seed).to_mapping(), fh)

    def warm_up(self):
        m = model.build(self.spec(self.seed + 1))
        train.fit(m, self.x[:4 * BATCH], self.y[:4 * BATCH],
                  train.TrainConfig(epochs=1, batch_size=BATCH, seed=self.seed))

    def instrument(self, tracer):
        # fit has no per-step function: a step runs from the end of the
        # previous one (or the start of the epoch) to the end of its optimizer
        # update, so its span opens when the model's forward is entered
        def epoch_start(args):
            self._step_start = time.perf_counter()
            return {}

        def step_end(attrs, args, result):
            tracer.close_current()
            self._step_start = time.perf_counter()

        def loss_seen(attrs, args, result):
            attrs["nonfinite"] = not np.isfinite(result)

        tracer.wrap(train, "train_epoch", "train.epoch", before=epoch_start)
        tracer.wrap(train, "one_hot", "train.loss")
        tracer.wrap(train, "cross_entropy_loss", "train.loss", after=loss_seen)
        tracer.wrap(train, "cross_entropy_delta", "train.loss")
        tracer.wrap(train.RmsProp, "step", "train.optimizer", after=step_end)
        tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save",
                    after=lambda attrs, args, r: attrs.update(bytes=os.path.getsize(args[0])))

    def _open_step(self, tracer):
        if tracer.current == "train.epoch":
            tracer.open("train.step", start=self._step_start)
        return {}

    def op(self, tracer):
        m = model.build(self.spec(self.seed))
        mark = tracer.mark() if tracer else 0
        if tracer:
            instrument_model(tracer, m, before_forward=lambda args: self._open_step(tracer))
        stamps = []
        tc = train.TrainConfig(epochs=self.scale.train_epochs, batch_size=BATCH, seed=self.seed)
        t0 = time.perf_counter()
        try:
            history = train.fit(m, self.x, self.y, tc, train.RmsPropConfig(),
                                log=lambda line: stamps.append(time.perf_counter()))
            checkpoint.save_checkpoint(self.workdir / "model.lunet", m, self.mean, self.std,
                                       CLASS_NAMES, gen.encoded_columns(), "binary")
        except FloatingPointError as e:
            self.checks.record("train.losses_finite", False, str(e))
            return Op(time.perf_counter() - t0, [], self.steps, self.steps)
        finally:
            if tracer:
                tracer.restore(mark)  # let this model and its caches go
        wall = time.perf_counter() - t0
        losses = [loss for _, loss, _ in history]
        acc = history[-1][2]
        self.accs.append(acc)
        ok = self.checks.record("train.losses_finite", bool(np.all(np.isfinite(losses))),
                                f"losses {losses}")
        ok &= self.checks.record("train.acc_above_majority", acc > self.majority,
                                 f"train_acc {acc:.4f} vs majority {self.majority:.4f}")
        epoch_walls = np.diff([t0] + stamps)
        rates = [self.scale.train_rows / w for w in epoch_walls]
        return Op(wall, rates, self.steps, 0 if ok else self.steps)

    def info(self):
        return {"train_acc": (median(self.accs), "fraction")}

    def traced_metrics(self, tracer):
        out = layer_metrics(tracer, "train.step")
        steps = tracer.named("train.step")
        selfs = tracer.self_times()
        owner = tracer.roots_under("train.step")
        out["model.forward_ms"] = 1e3 * median(durations(tracer, "model.forward"))
        out["model.backward_ms"] = 1e3 * median(durations(tracer, "model.backward"))
        out["train.step_ms"] = 1e3 * median(durations(tracer, "train.step"))
        out["train.loss_ms"] = 1e3 * median(
            per_op_sums(tracer, "train.step", lambda n: n == "train.loss"))
        out["train.optimizer_ms"] = 1e3 * median(durations(tracer, "train.optimizer"))
        out["train.self_ms"] = 1e3 * median(selfs[s] for s in steps)
        out["train.steps"] = float(len(steps))
        out["train.nonfinite_steps"] = float(sum(
            1 for sid in tracer.named("train.loss") if tracer.spans[sid][4].get("nonfinite")))
        lstm = {s: 0.0 for s in steps}
        for sid, root in owner.items():
            if ".lstm." in tracer.spans[sid][0]:
                lstm[root] += tracer.duration(sid)
        out["train.lstm_share"] = median(lstm[s] / tracer.duration(s) for s in steps)
        out["train.acc"] = median(self.accs)
        out["checkpoint.save_ms"] = 1e3 * median(durations(tracer, "checkpoint.save"))
        out["checkpoint.bytes"] = median(attr_values(tracer, "checkpoint.save", "bytes"))
        # model self time: the layer loop outside the layers themselves
        model_self = median(
            sum(selfs[sid] for sid, r in owner.items() if r == s
                and tracer.spans[sid][0] in ("model.forward", "model.backward"))
            for s in steps)
        self.accounting = {
            "step_ms": out["train.step_ms"],
            "layers_ms": sum(out[f"layers.{g}.{d}_ms"] for g in LAYER_GROUPS
                             for d in ("fwd", "bwd")),
            "model_self_ms": 1e3 * model_self,
            "loss_ms": out["train.loss_ms"],
            "optimizer_ms": out["train.optimizer_ms"],
            "train_self_ms": out["train.self_ms"],
        }
        return out


class EvaluateNslKdd(Workload):
    """`lunet evaluate` in-process on a seeded NSL-KDD CSV against a
    paper-width checkpoint written during set-up."""

    name = "evaluate-nslkdd"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        fit_rows = gen.make_rows(max(scale.train_rows, 256), seed)
        raw = gen.encode(fit_rows)
        mean, std = gen.fit_standardization(raw)
        m = model.build(self.spec(seed))
        self.ckpt = workdir / "model.lunet"
        checkpoint.save_checkpoint(self.ckpt, m, mean, std, CLASS_NAMES,
                                   gen.encoded_columns(), "binary")
        self.rows = gen.make_rows(scale.eval_rows, seed, part=1)
        self.csv = workdir / "eval.csv"
        gen.write_csv(self.csv, self.rows)
        self.truth = gen.binary_labels(self.rows)
        self.x = gen.standardize(gen.encode(self.rows), mean, std)
        np.save(workdir / "warmup_x.npy", self.x[:BATCH])
        self.outdir = workdir / "eval-out"
        self.reports: list[str] = []

        # the README's guarantee: a reloaded checkpoint reproduces infer outputs bitwise
        m.set_mode("infer")
        saved = m.forward(self.x[:PREDICT_CHUNK])
        loaded = checkpoint.load_checkpoint(self.ckpt)
        self.loaded = loaded
        same = np.array_equal(saved, loaded[0].forward(self.x[:PREDICT_CHUNK]))
        self.reload_ok = self.checks.record("evaluate.reload_bit_identical", same)

    def warm_up(self):
        self.loaded[0].predict_class(self.x[:PREDICT_CHUNK])

    def instrument(self, tracer):
        instrument_cli(tracer)

    def op(self, tracer):
        argv = ["evaluate", "--dataset", "nsl-kdd", "--data-path", str(self.csv),
                "--task", "binary", "--checkpoint", str(self.ckpt),
                "--output-dir", str(self.outdir)]
        mark = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        span = tracer.span("cli.evaluate") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.restore(mark)  # the wraps on the model this command loaded
        ok = self.checks.record("evaluate.exit_0", code == 0, f"exit code {code}")
        report = ""
        if ok:
            with open(self.outdir / "report.jsonl", encoding="utf-8") as fh:
                report = fh.read()
        self.reports.append(report)
        rows = self.scale.eval_rows
        return Op(wall, [rows / wall], 1, 0 if ok else 1)

    def finish(self, ops: list[Op]):
        """Compare every report with one independent predict_class pass."""
        m, mean, std, _, columns, _ = self.loaded
        table = data.prepare_dataset(data.load_csv(self.csv, data.NSL_KDD), "binary")
        self.checks.record("evaluate.encoded_columns_match_checkpoint",
                           table.encoded_columns == columns)
        pred = np.concatenate([m.predict_class(self.x[i:i + PREDICT_CHUNK])
                               for i in range(0, len(self.x), PREDICT_CHUNK)])
        counts = np.zeros((2, 2), dtype=np.int64)
        np.add.at(counts, (self.truth, pred), 1)
        acc = float(np.trace(counts)) / counts.sum()
        self.report_acc = acc
        for op, report in zip(ops, self.reports):
            if not report:
                continue
            records = [json.loads(line) for line in report.splitlines()]
            fold = next(r for r in records if r["record"] == "fold")
            same = (fold["confusion"] == counts.tolist()
                    and fold["acc"] == round(acc, 4))
            if not self.checks.record("evaluate.report_matches_reference", same,
                                      f"report {fold['confusion']} vs {counts.tolist()}"):
                op.failed = op.attempted
            if not self.reload_ok:
                op.failed = op.attempted

    def info(self):
        return {"eval_report_acc": (self.report_acc, "fraction")}

    def traced_metrics(self, tracer):
        out = layer_metrics(tracer, "model.predict")
        selfs = tracer.self_times()
        out["model.predict_ms"] = 1e3 * median(durations(tracer, "model.predict"))
        _data_metrics(tracer, out)
        out["data.standardize_s"] = median(durations(tracer, "data.standardize"))
        out["checkpoint.load_ms"] = 1e3 * median(durations(tracer, "checkpoint.load"))
        out["checkpoint.bytes"] = median(attr_values(tracer, "checkpoint.load", "bytes"))
        out["metrics.confusion_ms"] = 1e3 * median(durations(tracer, "metrics.confusion"))
        out["metrics.report_ms"] = 1e3 * median(
            per_op_sums(tracer, "cli.evaluate", lambda n: n == "metrics.report"))
        out["cli.predict_batched_s"] = median(durations(tracer, "cli.predict_batched"))
        out["cli.write_report_ms"] = 1e3 * median(durations(tracer, "cli.write_report"))
        out["cli.self_ms"] = 1e3 * median(selfs[s] for s in tracer.named("cli.evaluate"))
        return out


def _data_metrics(tracer: Tracer, out: dict):
    out["data.load_csv_s"] = median(durations(tracer, "data.load_csv"))
    out["data.prepare_s"] = median(durations(tracer, "data.prepare"))
    out["data.rows"] = median(attr_values(tracer, "data.load_csv", "rows"))
    out["data.bytes"] = median(attr_values(tracer, "data.load_csv", "bytes"))


class IngestNslKdd(Workload):
    """The network-free front end of `lunet crossval --folds 10` at the real
    NSL-KDD size: parse, encode, split and standardize every fold."""

    name = "ingest-nslkdd"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        n_train, n_test = scale.ingest_rows
        self.parts = [gen.make_rows(n_train, seed), gen.make_rows(n_test, seed, part=1)]
        self.paths = [workdir / "train.csv", workdir / "test.csv"]
        for rows, path in zip(self.parts, self.paths):
            gen.write_csv(path, rows)
        warm = gen.make_rows(len(gen.SERVICES), seed, part=2)
        gen.write_csv(workdir / "warmup.csv", warm)
        self.n_rows = n_train + n_test

    def warm_up(self):
        self.op(None)

    def instrument(self, tracer):
        _instrument_data(tracer, data)
        tracer.wrap(data, "stratified_kfold", "data.kfold")
        tracer.wrap(data, "fit_standardization", "data.fit_standardization")
        tracer.wrap(data, "apply_standardization", "data.apply_standardization")

    def op(self, tracer):
        t0 = time.perf_counter()
        raw = data.load_csv(self.paths[0], data.NSL_KDD, [self.paths[1]])
        table = data.prepare_dataset(raw, "binary")
        del raw
        plan = data.stratified_kfold(table.labels, FOLDS, self.seed)
        for fold in range(FOLDS):
            with tracer.span("data.standardize") if tracer else contextlib.nullcontext():
                mean, std = data.fit_standardization(table.features, plan.train_indices(fold))
                x = data.apply_standardization(table.features, mean, std)
            del x
        wall = time.perf_counter() - t0
        ok = self._check(table, plan)
        return Op(wall, [self.n_rows / wall], 1, 0 if ok else 1)

    def _check(self, table, plan) -> bool:
        c = self.checks
        columns = gen.encoded_columns()
        ok = c.record("ingest.rows_and_columns",
                      table.features.shape == (self.n_rows, len(columns))
                      and table.encoded_columns == columns,
                      f"shape {table.features.shape}")
        if not ok:
            return False
        sums_ok = True
        for name in gen.CATEGORICAL:
            cols = [i for i, n in enumerate(columns) if n.startswith(name + "=")]
            sums_ok &= bool(np.all(table.features[:, cols].sum(axis=1) == 1.0))
        ok &= c.record("ingest.one_hot_blocks_sum_to_1", sums_ok)
        truth = np.concatenate([gen.binary_labels(p) for p in self.parts])
        ok &= c.record("ingest.labels_match_truth", np.array_equal(table.labels, truth))
        numeric_idx = [columns.index(n) for n in gen.NUMERIC]
        numeric = np.concatenate([p["numeric"] for p in self.parts])
        ok &= c.record("ingest.numeric_values_match_truth",
                       np.array_equal(table.features[:, numeric_idx], numeric))
        fold_ok = True
        for cls in np.unique(truth):
            in_cls = plan.assignments[table.labels == cls]
            counts = np.bincount(in_cls, minlength=FOLDS)
            fold_ok &= bool(np.all(np.abs(counts - len(in_cls) / FOLDS) <= 1.0))
        ok &= c.record("ingest.folds_proportional", fold_ok)
        return ok

    def traced_metrics(self, tracer):
        out = {}
        _data_metrics(tracer, out)
        out["data.kfold_s"] = median(durations(tracer, "data.kfold"))
        out["data.standardize_s"] = median(durations(tracer, "data.standardize"))
        return out


WORKLOADS = {w.name: w for w in (TrainPaper, EvaluateNslKdd, IngestNslKdd)}


def probe_setup(wl: Workload) -> float:
    """Set-up time of a fresh process: import lunet, build or load the model,
    one warm-up batch."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), wl.name, str(wl.workdir)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run(name: str, seed: int, seconds: float, traced: bool, scale: Scale,
        workdir: Path) -> dict:
    """Run one workload; returns metrics, checks, op counts and the tracer."""
    wl = WORKLOADS[name](seed, scale, workdir)
    # host speed drifts over seconds, so set-up probes are spread over the run:
    # half before it, one after each operation, the rest at the end
    setup = [] if traced else [probe_setup(wl) for _ in range(SETUP_PROBES // 2)]
    tracer = Tracer() if traced else None
    baseline = []
    wl.warm_up()
    if tracer:
        # one untraced operation first, for the tracing overhead
        baseline.append(wl.op(None))
        wl.instrument(tracer)
    ops = []
    try:
        while True:
            if tracer:
                with tracer.span("op"):
                    ops.append(wl.op(tracer))
            else:
                ops.append(wl.op(None))
                if len(setup) < SETUP_PROBES:
                    setup.append(probe_setup(wl))
            # stop when one more operation would end over half its length late
            measured = sum(o.wall for o in baseline + ops)
            if len(ops) >= wl.min_ops and measured + ops[-1].wall / 2 >= seconds:
                break
    finally:
        if tracer:
            tracer.restore()
    if not traced:
        setup += [probe_setup(wl) for _ in range(SETUP_PROBES - len(setup))]
    wl.finish(baseline + ops)
    result = {"workload": wl, "ops": ops, "tracer": tracer,
              "attempted": sum(o.attempted for o in baseline + ops),
              "failed": sum(o.failed for o in baseline + ops)}
    if traced:
        metrics = {name: 0.0 for name in PER_LAYER}  # layers with no work read 0
        metrics.update(wl.traced_metrics(tracer))
        metrics["trace.overhead_s"] = (median(o.wall for o in ops)
                                       - median(o.wall for o in baseline))
        result["metrics"] = metrics
    else:
        result["metrics"] = {
            "setup_s": median(setup),
            "rows_per_s": median(r for o in ops for r in o.rates),
        }
        result["setup_samples"] = setup
    return result
