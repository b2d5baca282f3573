"""Acceptance gate: the nine release criteria, one test each.

Each test prints a single "criterion N ... PASS/FAIL" line (visible with
pytest -s or in captured output). Criteria 7 and 8 need the real NSL-KDD and
UNSW-NB15 CSV files; they look under $LUNET_DATA_DIR (or ./data) and skip with
an explicit reason when the files are not present.
"""

import glob
import os

import numpy as np
import pytest

from lunet import LuNetSpec, build
from lunet.cli import RunConfig, cmd_crossval, main
from lunet.data import (fit_standardization, apply_standardization,
                        stratified_kfold, synth_dataset)
from lunet.layers import (LSTM, BatchNorm, Conv1D, Dense, GlobalAvgPool,
                          MaxPool1D)
from lunet.metrics import binary_metrics, confusion
from lunet.tensor import Rng
from lunet.train import (RmsProp, TrainConfig, standard_gradient_suite,
                         train_epoch)
from report_parser import parse_report


def report_line(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_gradient_suite():
    results = standard_gradient_suite()
    needed = {"conv1d", "maxpool", "batchnorm", "lstm", "dense",
              "softmax_xent", "dropout", "gap", "lunet_1block"}
    ok = needed <= set(results) and all(e < 1e-4 for e in results.values())
    report_line(1, "gradient suite < 1e-4", ok)


def conv_oracle(x, f, b):
    n, l_in, c_in = x.shape
    c_out, _, m = f.shape
    out = np.zeros((n, l_in - m + 1, c_out))
    for bi in range(n):
        for i in range(l_in - m + 1):
            for o in range(c_out):
                s = b[o]
                for j in range(m):
                    for c in range(c_in):
                        s += x[bi, i + j, c] * f[o, c, j]
                out[bi, i, o] = s
    return out


def maxpool_oracle(x, pool):
    n, l_in, c = x.shape
    l_out = l_in // pool
    out = np.zeros((n, l_out, c))
    for bi in range(n):
        for i in range(l_out):
            for ch in range(c):
                out[bi, i, ch] = max(x[bi, i * pool + j, ch]
                                     for j in range(pool))
    return out


def lstm_oracle(x, p):
    """Scalar cell updates chained over x [batch, length, in] from zero state;
    gate k (p, g, f, q) of cell j reads column k * cells + j of U, W and b."""
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))
    n, length, d = x.shape
    cells = p["W"].shape[0]
    out = np.zeros((n, length, cells))
    for bi in range(n):
        h, s = [0.0] * cells, [0.0] * cells
        for t in range(length):
            a = [p["b"][col]
                 + sum(x[bi, t, i] * p["U"][i, col] for i in range(d))
                 + sum(h[i] * p["W"][i, col] for i in range(cells))
                 for col in range(4 * cells)]
            for j in range(cells):
                s[j] = (sig(a[2 * cells + j]) * s[j]
                        + sig(a[j]) * np.tanh(a[cells + j]))
            h = [np.tanh(s[j]) * sig(a[3 * cells + j]) for j in range(cells)]
            out[bi, t] = h
    return out


def test_criterion_2_oracle_equivalence():
    rng = Rng(11)
    worst = 0.0
    for trial in range(100):
        x = rng.normal((2, 6, 2))
        conv = Conv1D(2, 3, 3, Rng(trial))
        got = conv.forward(x)
        want = conv_oracle(x, conv.params["filters"], conv.params["bias"])
        worst = max(worst, float(np.max(np.abs(got - want))))

        xp = rng.normal((2, 7, 2))
        pool = MaxPool1D(2)
        worst = max(worst, float(np.max(np.abs(
            pool.forward(xp) - maxpool_oracle(xp, 2)))))

        gap = GlobalAvgPool()
        worst = max(worst, float(np.max(np.abs(
            gap.forward(x) - x.mean(axis=1)))))

        dense = Dense(4, 3, Rng(trial + 1))
        xd = rng.normal((2, 4))
        want_d = xd @ dense.params["W"] + dense.params["b"]
        worst = max(worst, float(np.max(np.abs(dense.forward(xd) - want_d))))

        lstm = LSTM(2, 3, Rng(trial + 2))
        lstm.params["b"][...] = rng.normal((12,))
        xl = rng.normal((2, 3, 2))
        worst = max(worst, float(np.max(np.abs(
            lstm.forward(xl) - lstm_oracle(xl, lstm.params)))))
    report_line(2, "layer oracles within 1e-12", worst < 1e-12)


def test_criterion_3_batchnorm_moments():
    bn = BatchNorm(5, epsilon=1e-5)
    out = bn.forward(Rng(3).normal((32, 5), 2.0, 3.0), mode="train")
    ok = (np.max(np.abs(out.mean(axis=0))) < 1e-10
          and np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-3)
    report_line(3, "batchnorm train-mode moments", ok)


def test_criterion_4_pipeline_properties():
    ok = True
    # stratified balance for the documented k sweep
    for k in (2, 4, 6, 8, 10):
        labels = np.random.default_rng(k).integers(0, 3, size=240)
        plan = stratified_kfold(labels, k, seed=1)
        for c in range(3):
            counts = [((labels == c) & (plan.assignments == f)).sum()
                      for f in range(k)]
            ok = ok and (max(counts) - min(counts) <= 1)
    # train-fold standardization moments
    x = np.random.default_rng(0).normal(3.0, 2.5, size=(64, 5))
    mean, std = fit_standardization(x, np.arange(40))
    z = apply_standardization(x, mean, std)[:40]
    ok = ok and np.max(np.abs(z.mean(axis=0))) < 1e-10
    ok = ok and np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-6
    # one-hot indicator rows form a partition of unity
    from lunet.data import NSL_KDD, encode_categorical, load_csv
    import tempfile
    row = ["0", "tcp", "http", "SF"] + ["0"] * 37
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for proto in ("tcp", "udp", "icmp", "udp"):
                cells = list(row)
                cells[1] = proto
                fh.write(",".join(cells + ["normal", "1"]) + "\n")
        feats, cols = encode_categorical(load_csv(path, NSL_KDD))
    block = [j for j, c in enumerate(cols) if c.startswith("protocol_type=")]
    ok = ok and np.all(feats[:, block].sum(axis=1) == 1.0)
    report_line(4, "pipeline properties", ok)


def overfit_run(seed=42):
    table = synth_dataset(2, 64, 16, 8.0, seed)
    mean, std = fit_standardization(table.features, np.arange(64))
    table.features = apply_standardization(table.features, mean, std)
    model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                            final_conv_filters=4, init_seed=1))
    opt = RmsProp()
    tc = TrainConfig(batch_size=32, seed=0)
    for epoch in range(200):
        _, acc = train_epoch(model, table.features, table.labels, tc, opt,
                             epoch)
        if acc == 1.0:
            return epoch, acc
    return 200, acc


def test_criterion_5_overfit_smoke():
    epoch, acc = overfit_run()
    report_line(5, f"overfit smoke (100% at epoch {epoch})",
                acc == 1.0 and epoch < 200)


def test_criterion_6_metric_fidelity():
    counts = np.array([[95, 5], [10, 90]], dtype=np.int64)
    cm = confusion([0] * 100 + [1] * 100,
                   [0] * 95 + [1] * 5 + [0] * 10 + [1] * 90,
                   ["normal", "attack"])
    ok = np.array_equal(cm.counts, counts)
    ms = binary_metrics(cm)
    ok = ok and ms.dr == 0.9000 and ms.fpr == 0.0500 and ms.acc == 0.9250
    # recomputation from the stored matrix is bit-for-bit identical
    ms2 = binary_metrics(cm)
    ok = ok and (ms2.acc, ms2.dr, ms2.fpr) == (ms.acc, ms.dr, ms.fpr)
    report_line(6, "metric fidelity", ok)


def data_dir():
    return os.environ.get("LUNET_DATA_DIR", "data")


def find_files(patterns):
    found = []
    for pat in patterns:
        found.extend(sorted(glob.glob(os.path.join(data_dir(), pat))))
    return found


def run_crossval(cfg, tmp_path):
    code = cmd_crossval(cfg)
    assert code == 0
    with open(os.path.join(cfg.output_dir, "report.jsonl"),
              encoding="utf-8") as fh:
        return parse_report(fh.read())


def test_criterion_7_nsl_kdd_binary(tmp_path):
    files = find_files(["KDDTrain+*.txt", "KDDTrain+*.csv",
                        "KDDTest+*.txt", "KDDTest+*.csv"])
    if not files:
        pytest.skip(f"criterion 7 SKIP: NSL-KDD CSV files not found under "
                    f"{data_dir()!r}; set LUNET_DATA_DIR to run")
    cfg = RunConfig(dataset="nsl-kdd", data_paths=tuple(files), task="binary",
                    folds=2, seed=0, subsample=20000, epochs=20,
                    output_dir=str(tmp_path))
    report = run_crossval(cfg, tmp_path)
    a = report.aggregate
    ok = a.acc >= 0.97 and a.dr >= 0.96 and a.fpr <= 0.025
    report_line(7, f"NSL-KDD binary (acc={a.acc:.4f} dr={a.dr:.4f} "
                   f"fpr={a.fpr:.4f})", ok)


def test_criterion_8_unsw_multiclass(tmp_path):
    files = find_files(["UNSW_NB15*train*.csv", "UNSW_NB15*test*.csv",
                        "UNSW-NB15*.csv"])
    if not files:
        pytest.skip(f"criterion 8 SKIP: UNSW-NB15 CSV files not found under "
                    f"{data_dir()!r}; set LUNET_DATA_DIR to run")
    cfg = RunConfig(dataset="unsw-nb15", data_paths=tuple(files), task="multi",
                    folds=2, seed=0, subsample=25000, epochs=20,
                    output_dir=str(tmp_path))
    report = run_crossval(cfg, tmp_path)
    acc = report.aggregate.acc
    dr = {name: v[0] for name, v in report.per_class.items()}
    easy = [dr.get("Generic"), dr.get("Normal")]
    hard = [dr.get("Backdoor"), dr.get("Worms")]
    ordinal = all(e is not None and all(h is None or e > h for h in hard)
                  for e in easy)
    ok = acc >= 0.75 and ordinal
    report_line(8, f"UNSW-NB15 multi-class (acc={acc:.4f})", ok)


def test_criterion_9_determinism(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "dataset = synthetic\n"
        "task = binary\n"
        "seed = 42\n"
        "model.levels = 4\n"
        "model.final_conv_filters = 4\n"
        "train.epochs = 30\n"
        "synth.samples = 64\n"
        "synth.features = 16\n"
        "synth.separation = 8\n")
    blobs = {}
    for name in ("a", "b"):
        out = str(tmp_path / name)
        ckpt = os.path.join(out, "model.lunet")
        code = main(["train", "--config", str(cfg_file),
                     "--output-dir", out, "--checkpoint", ckpt])
        assert code == 0
        with open(ckpt, "rb") as fh:
            ck = fh.read()
        with open(os.path.join(out, "report.jsonl"), "rb") as fh:
            rp = fh.read()
        blobs[name] = (ck, rp)
    report_line(9, "same-seed byte-identical checkpoint and report",
                blobs["a"] == blobs["b"])
