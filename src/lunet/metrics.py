"""Confusion matrices, accuracy / detection-rate / false-positive-rate
metrics, per-class one-vs-rest breakdowns and fold aggregation."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [classes, classes] int64; rows = actual, cols = predicted
    class_names: list


@dataclass
class MetricSet:
    tp: int
    tn: int
    fp: int
    fn: int
    acc: float
    dr: float | None  # None when TP+FN == 0
    fpr: float | None  # None when FP+TN == 0


@dataclass
class FoldAggregate:
    """Unweighted mean over folds; absent metrics are excluded and counted."""

    acc: float
    dr: float | None
    fpr: float | None
    folds: int
    dr_folds: int
    fpr_folds: int


@dataclass
class EvalReport:
    per_fold: list  # (fold index, MetricSet, ConfusionMatrix)
    aggregate: FoldAggregate
    per_class: dict = field(default_factory=dict)  # class name -> (dr|None, fpr|None)


def confusion(actual, predicted, class_names) -> ConfusionMatrix:
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    c = len(class_names)
    if actual.size and (actual.min() < 0 or actual.max() >= c
                        or predicted.min() < 0 or predicted.max() >= c):
        raise ValueError("label out of range")
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts=counts, class_names=list(class_names))


def _metrics_from_counts(tp: int, tn: int, fp: int, fn: int) -> MetricSet:
    total = tp + tn + fp + fn
    acc = (tp + tn) / total if total else 0.0
    dr = tp / (tp + fn) if (tp + fn) else None
    fpr = fp / (fp + tn) if (fp + tn) else None
    return MetricSet(tp=tp, tn=tn, fp=fp, fn=fn, acc=acc, dr=dr, fpr=fpr)


def binary_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Attack-vs-normal collapse, with class 0 the normal class: TP counts
    attacks classified as attacks."""
    m = cm.counts
    tp = int(m[1:, 1:].sum())
    fn = int(m[1:, 0].sum())
    fp = int(m[0, 1:].sum())
    tn = int(m[0, 0])
    return _metrics_from_counts(tp, tn, fp, fn)


def per_class_metrics(cm: ConfusionMatrix) -> dict:
    """One-vs-rest DR and FPR per class; absent when the class never occurs."""
    if len(cm.class_names) < 2:
        raise ValueError("need at least 2 classes")
    out = {}
    m = cm.counts
    total = m.sum()
    for i, name in enumerate(cm.class_names):
        tp = int(m[i, i])
        fn = int(m[i, :].sum() - tp)
        fp = int(m[:, i].sum() - tp)
        tn = int(total - tp - fn - fp)
        ms = _metrics_from_counts(tp, tn, fp, fn)
        out[name] = (ms.dr, ms.fpr)
    return out


def aggregate_folds(fold_metrics) -> FoldAggregate:
    if not fold_metrics:
        raise ValueError("need at least one fold")
    accs = [m.acc for m in fold_metrics]
    drs = [m.dr for m in fold_metrics if m.dr is not None]
    fprs = [m.fpr for m in fold_metrics if m.fpr is not None]
    return FoldAggregate(
        acc=float(np.mean(accs)),
        dr=float(np.mean(drs)) if drs else None,
        fpr=float(np.mean(fprs)) if fprs else None,
        folds=len(fold_metrics), dr_folds=len(drs), fpr_folds=len(fprs))


def _r4(x):
    return None if x is None else round(float(x), 4)


def render_report(report: EvalReport, fmt: str = "json-lines") -> str:
    if fmt == "json-lines":
        return _render_jsonl(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "pretty-table":
        return _render_pretty(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _fold_record(fold, ms: MetricSet, cm: ConfusionMatrix) -> dict:
    return {
        "record": "fold", "fold": int(fold),
        "tp": ms.tp, "tn": ms.tn, "fp": ms.fp, "fn": ms.fn,
        "acc": _r4(ms.acc), "dr": _r4(ms.dr), "fpr": _r4(ms.fpr),
        "class_names": cm.class_names,
        "confusion": cm.counts.tolist(),
    }


def _render_jsonl(report: EvalReport) -> str:
    lines = []
    for fold, ms, cm in report.per_fold:
        lines.append(json.dumps(_fold_record(fold, ms, cm), sort_keys=True))
    a = report.aggregate
    lines.append(json.dumps({
        "record": "aggregate", "acc": _r4(a.acc), "dr": _r4(a.dr), "fpr": _r4(a.fpr),
        "folds": a.folds, "dr_folds": a.dr_folds, "fpr_folds": a.fpr_folds,
    }, sort_keys=True))
    for name, (dr, fpr) in report.per_class.items():
        lines.append(json.dumps({
            "record": "per_class", "class": name, "dr": _r4(dr), "fpr": _r4(fpr),
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def _fmt(x):
    return "" if x is None else f"{x:.4f}"


def _render_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    buf.write("fold,tp,tn,fp,fn,acc,dr,fpr\n")
    for fold, ms, _ in report.per_fold:
        buf.write(f"{fold},{ms.tp},{ms.tn},{ms.fp},{ms.fn},"
                  f"{_fmt(ms.acc)},{_fmt(ms.dr)},{_fmt(ms.fpr)}\n")
    a = report.aggregate
    buf.write("aggregate_acc,aggregate_dr,aggregate_fpr,folds,dr_folds,fpr_folds\n")
    buf.write(f"{_fmt(a.acc)},{_fmt(a.dr)},{_fmt(a.fpr)},"
              f"{a.folds},{a.dr_folds},{a.fpr_folds}\n")
    if report.per_class:
        buf.write("class,dr,fpr\n")
        for name, (dr, fpr) in report.per_class.items():
            buf.write(f"{name},{_fmt(dr)},{_fmt(fpr)}\n")
    return buf.getvalue()


def confusion_csv(cm: ConfusionMatrix) -> str:
    buf = io.StringIO()
    buf.write("actual\\predicted," + ",".join(cm.class_names) + "\n")
    for name, row in zip(cm.class_names, cm.counts):
        buf.write(name + "," + ",".join(str(int(v)) for v in row) + "\n")
    return buf.getvalue()


def _render_pretty(report: EvalReport) -> str:
    lines = [f"{'fold':>6} {'acc':>8} {'dr':>8} {'fpr':>8}"]
    for fold, ms, _ in report.per_fold:
        lines.append(f"{fold:>6} {_fmt(ms.acc):>8} {_fmt(ms.dr):>8} {_fmt(ms.fpr):>8}")
    a = report.aggregate
    lines.append(f"{'avg':>6} {_fmt(a.acc):>8} {_fmt(a.dr):>8} {_fmt(a.fpr):>8}")
    if report.per_class:
        lines.append("")
        lines.append(f"{'class':>16} {'dr':>8} {'fpr':>8}")
        for name, (dr, fpr) in report.per_class.items():
            lines.append(f"{name:>16} {_fmt(dr):>8} {_fmt(fpr):>8}")
    return "\n".join(lines) + "\n"
