"""`lunet crossval --dataset unsw-nb15` end to end on a small seeded CSV in
the UNSW-NB15 layout: the header and columns of `data.UNSW_NB15`, all ten
attack categories, and the raw labels the real files carry for benign rows
(an empty category) and backdoors (`Backdoors`)."""

import csv
import json

import numpy as np
import pytest

from lunet.cli import EXIT_OK, main
from lunet.data import (CATEGORICAL, LABEL, UNSW_NB15, load_csv, prepare_dataset,
                        stratified_kfold)
from lunet.tensor import Rng

ROWS_PER_CLASS = 4
# each class's raw category cells, taken in turn
RAW_LABELS = {"Normal": ["", "Normal"], "Backdoor": ["Backdoors", "Backdoor"]}
VOCABULARIES = {"proto": ["tcp", "udp", "arp"], "service": ["-", "http", "dns"],
                "state": ["FIN", "INT", "CON"]}


def write_unsw(path, seed=0):
    """ROWS_PER_CLASS rows of each of the ten classes, numeric cells drawn
    from `Rng(seed)`, shifted by the class so that the rows carry signal."""
    rng = Rng(seed)
    classes = UNSW_NB15.class_names_multi
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow([name for name, _ in UNSW_NB15.columns])
        row_id = 0
        for r in range(ROWS_PER_CLASS):
            for k, name in enumerate(classes):
                row_id += 1
                cells = []
                for column, kind in UNSW_NB15.columns:
                    if kind == LABEL:
                        labels = RAW_LABELS.get(name, [name])
                        cells.append(labels[r % len(labels)])
                    elif kind == CATEGORICAL:
                        vocab = VOCABULARIES[column]
                        cells.append(vocab[(r + k) % len(vocab)])
                    elif column == "id":
                        cells.append(str(row_id))
                    elif column == "label":
                        cells.append("0" if name == "Normal" else "1")
                    else:
                        cells.append(repr(float(rng.normal((1,))[0]) + k))
                out.writerow(cells)


@pytest.fixture(scope="module")
def unsw_crossval(tmp_path_factory):
    d = tmp_path_factory.mktemp("unsw")
    data, out = d / "UNSW_NB15_training-set.csv", d / "out"
    write_unsw(data)
    config = d / "small.conf"
    config.write_text("model.final_conv_filters = 4\n", encoding="utf-8")
    code = main(["crossval", "--dataset", "unsw-nb15", "--data-path", str(data),
                 "--task", "multi", "--folds", "2", "--levels", "4", "--epochs", "1",
                 "--batch-size", "8", "--seed", "0", "--config", str(config),
                 "--output-dir", str(out)])
    records = [json.loads(line) for line in
               (out / "report.jsonl").read_text(encoding="utf-8").splitlines()]
    return code, data, records


def test_exits_0(unsw_crossval):
    code, _, _ = unsw_crossval
    assert code == EXIT_OK


def test_per_class_records_name_the_ten_classes_in_order(unsw_crossval):
    _, _, records = unsw_crossval
    per_class = [r["class"] for r in records if r["record"] == "per_class"]
    assert per_class == list(UNSW_NB15.class_names_multi)


def test_each_folds_confusion_matrix_sums_to_its_rows(unsw_crossval):
    _, data, records = unsw_crossval
    table = prepare_dataset(load_csv(str(data), UNSW_NB15), "multi")
    assert np.bincount(table.labels).tolist() == [ROWS_PER_CLASS] * 10
    plan = stratified_kfold(table.labels, 2, 0, table.class_names)
    folds = [r for r in records if r["record"] == "fold"]
    assert [r["fold"] for r in folds] == [0, 1]
    for r in folds:
        assert r["class_names"] == list(UNSW_NB15.class_names_multi)
        assert int(np.sum(r["confusion"])) == len(plan.val_indices(r["fold"]))
