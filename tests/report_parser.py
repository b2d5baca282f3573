"""The tests' reader for `report.jsonl`: the inverse of the json-lines
rendering in `lunet.metrics`, so that a report's records can be checked
field by field and the format shown to round-trip."""

import json

import numpy as np

from lunet.metrics import ConfusionMatrix, EvalReport, FoldAggregate, MetricSet


def parse_report(text: str) -> EvalReport:
    """Inverse of the json-lines rendering (metrics at 4-decimal precision)."""
    per_fold, per_class, aggregate = [], {}, None
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["record"] == "fold":
            ms = MetricSet(tp=rec["tp"], tn=rec["tn"], fp=rec["fp"], fn=rec["fn"],
                           acc=rec["acc"], dr=rec["dr"], fpr=rec["fpr"])
            cm = ConfusionMatrix(counts=np.asarray(rec["confusion"], dtype=np.int64),
                                 class_names=rec["class_names"])
            per_fold.append((rec["fold"], ms, cm))
        elif rec["record"] == "aggregate":
            aggregate = FoldAggregate(acc=rec["acc"], dr=rec["dr"], fpr=rec["fpr"],
                                      folds=rec["folds"], dr_folds=rec["dr_folds"],
                                      fpr_folds=rec["fpr_folds"])
        elif rec["record"] == "per_class":
            per_class[rec["class"]] = (rec["dr"], rec["fpr"])
    if aggregate is None:
        raise ValueError("report text has no aggregate record")
    return EvalReport(per_fold=per_fold, aggregate=aggregate, per_class=per_class)
