"""Command line boundaries: the settings table, bad train, float and synthetic
settings, output paths that cannot be made, mismatched evaluation columns or
classes, non-finite, non-UTF-8 or oversized CSV cells, corrupt or
inconsistent checkpoints and non-finite parameters each end in their
documented exit code."""

import csv
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infer_blocks import single_pass
from lunet.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, TRAIN_FOLDS,
                       ConfigError, RunConfig, build_run_config, main, make_parser,
                       parse_config_file)
from lunet.checkpoint import load_checkpoint, save_checkpoint
from lunet.data import (NSL_KDD, apply_standardization, load_csv, prepare_dataset,
                        stratified_kfold)
from lunet.metrics import confusion, confusion_csv
from lunet.model import INFER_CHUNK, LuNetModel, LuNetSpec, build


def write_nsl(path, services, rows=12):
    """NSL-KDD rows, half normal and half neptune, cycling `services` (the
    csv module quotes a cell that needs it); each row's duration is its index."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        for i in range(rows):
            cells = [str(i), "tcp", services[i % len(services)], "SF"] + ["0"] * 37
            out.writerow(cells + ["normal" if i % 2 else "neptune", "20"])


@pytest.fixture(scope="module")
def nsl_run(tmp_path_factory):
    """A checkpoint trained on services {ftp,http}; returns (dir, common argv)."""
    d = tmp_path_factory.mktemp("nsl")
    write_nsl(d / "ftp_http.csv", ["ftp", "http"])
    write_nsl(d / "http_smtp.csv", ["http", "smtp"])
    common = ["--dataset", "nsl-kdd", "--task", "binary", "--levels", "4",
              "--epochs", "1", "--batch-size", "4"]
    assert main(["train", *common, "--data-path", str(d / "ftp_http.csv"),
                 "--checkpoint", str(d / "model.lunet"),
                 "--output-dir", str(d / "train")]) == EXIT_OK
    return d, common


def evaluate(nsl_run, csv_name, ckpt_name="model.lunet"):
    d, common = nsl_run
    return main(["evaluate", *common, "--data-path", str(d / csv_name),
                 "--checkpoint", str(d / ckpt_name), "--output-dir", str(d / "eval")])


def test_evaluate_accepts_the_training_columns(nsl_run):
    assert evaluate(nsl_run, "ftp_http.csv") == EXIT_OK


def test_evaluate_rejects_shifted_columns_of_equal_width(nsl_run, capsys):
    capsys.readouterr()
    assert evaluate(nsl_run, "http_smtp.csv") == EXIT_DATA
    err = capsys.readouterr().err
    assert "'service=http'" in err and "'service=ftp'" in err


@pytest.mark.parametrize("service", ["svc|odd", "line\nbreak"])
def test_evaluate_of_the_training_csv_with_any_category_name(tmp_path, service):
    # checkpoints before version 3 joined the encoded column names with "|"
    # into a line of text, so such a name came back split
    write_nsl(tmp_path / "odd.csv", [service, service, "http", "http"])
    argv = ["--dataset", "nsl-kdd", "--levels", "4", "--epochs", "1", "--batch-size", "4",
            "--data-path", str(tmp_path / "odd.csv"), "--checkpoint", str(tmp_path / "m.lunet")]
    assert main(["train", *argv, "--output-dir", str(tmp_path / "train")]) == EXIT_OK
    assert main(["evaluate", *argv, "--output-dir", str(tmp_path / "eval")]) == EXIT_OK


def test_evaluate_of_one_row_past_a_block_scores_one_pass_over_all_rows(tmp_path):
    # the 65th row joins the 64-row block instead of running alone
    csv_path, ckpt = tmp_path / "rows.csv", tmp_path / "m.lunet"
    write_nsl(csv_path, ["ftp", "http"], rows=INFER_CHUNK + 1)
    argv = ["--dataset", "nsl-kdd", "--levels", "4", "--epochs", "1", "--batch-size", "4",
            "--data-path", str(csv_path), "--checkpoint", str(ckpt)]
    assert main(["train", *argv, "--output-dir", str(tmp_path / "train")]) == EXIT_OK
    assert main(["evaluate", *argv, "--output-dir", str(tmp_path / "eval")]) == EXIT_OK
    model, mean, std, class_names, *_ = load_checkpoint(ckpt)
    table = prepare_dataset(load_csv(csv_path, NSL_KDD), "binary")
    probs = single_pass(model, apply_standardization(table.features, mean, std))
    want = confusion(table.labels, np.argmax(probs, axis=1), class_names)
    assert (tmp_path / "eval" / "confusion_fold0.csv").read_text() == confusion_csv(want)


def save_synthetic_checkpoint(path, input_features, class_names, columns, task):
    model = build(LuNetSpec(input_features=input_features, num_classes=len(class_names),
                            levels=(4,), final_conv_filters=4))
    save_checkpoint(path, model, np.zeros(input_features), np.ones(input_features),
                    class_names, columns, task)


def test_checkpoint_with_more_columns_than_inputs_exits_3(tmp_path, capsys):
    # the 64 columns match the synthetic data's, so only the load can catch it
    ckpt = tmp_path / "wide.lunet"
    save_synthetic_checkpoint(ckpt, 32, ["class0", "class1"], [f"f{i}" for i in range(64)],
                              "binary")
    assert main(["evaluate", "--dataset", "synthetic", "--checkpoint", str(ckpt),
                 "--output-dir", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(ckpt) in err and "64 encoded column names for 32 input features" in err


def test_checkpoint_classes_differ_from_the_data_exits_3(tmp_path, capsys):
    ckpt = tmp_path / "two.lunet"
    save_synthetic_checkpoint(ckpt, 64, ["class0", "class1"], [f"f{i}" for i in range(64)],
                              "multi")
    assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                 "--checkpoint", str(ckpt), "--output-dir", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "'class4'" in err and "['class0', 'class1']" in err


def test_truncated_checkpoint_exits_3(nsl_run, capsys):
    d, _ = nsl_run
    blob = (d / "model.lunet").read_bytes()
    (d / "short.lunet").write_bytes(blob[:len(blob) // 2])
    capsys.readouterr()
    assert evaluate(nsl_run, "ftp_http.csv", "short.lunet") == EXIT_DATA
    assert "truncated" in capsys.readouterr().err


def test_nan_weight_exits_3_naming_the_tensor(nsl_run, capsys):
    d, _ = nsl_run
    blob = bytearray((d / "model.lunet").read_bytes())
    name = b"head.dense.W"
    # past the u16 name length, the name, the u8 rank and two u32 dims
    at = blob.index(struct.pack("<H", len(name)) + name) + 2 + len(name) + 1 + 8
    blob[at:at + 8] = struct.pack("<d", float("nan"))
    (d / "nan_weight.lunet").write_bytes(bytes(blob))
    capsys.readouterr()
    assert evaluate(nsl_run, "ftp_http.csv", "nan_weight.lunet") == EXIT_DATA
    assert (f"nan_weight.lunet byte {at}: tensor 'head.dense.W' holds a non-finite "
            "value nan") in capsys.readouterr().err


def test_overflowing_column_exits_3_naming_it(tmp_path, capsys):
    # a finite 1e308 cell overflows the squared deviations of its column
    rows = tmp_path / "huge.csv"
    write_nsl(rows, ["ftp", "http"])
    lines = rows.read_text().splitlines()
    lines[3] = "1e308" + lines[3][1:]
    rows.write_text("\n".join(lines) + "\n")
    assert main(["crossval", "--dataset", "nsl-kdd", "--data-path", str(rows),
                 "--folds", "2", "--levels", "4", "--epochs", "1", "--batch-size", "2",
                 "--output-dir", str(tmp_path / "out")]) == EXIT_DATA
    assert ("fold 0: encoded column 'duration' overflows standardization (mean "
            in capsys.readouterr().err)


def write_small_durations(path, huge_row=None):
    """`write_nsl` rows whose durations are their index / 100 (std about
    0.035), with `1e308` in data row `huge_row` (counted from 0)."""
    write_nsl(path, ["ftp", "http"])
    lines = path.read_text().splitlines()
    lines = [("1e308" if i == huge_row else str(i / 100)) + line[line.index(","):]
             for i, line in enumerate(lines)]
    path.write_text("\n".join(lines) + "\n")


def test_evaluate_exits_3_on_a_row_that_standardizes_to_inf(tmp_path, capsys):
    # numpy's overflow warning on the way would fail this test too, as
    # pyproject.toml makes every RuntimeWarning an error
    common = ["--dataset", "nsl-kdd", "--levels", "4", "--epochs", "1",
              "--batch-size", "4", "--checkpoint", str(tmp_path / "model.lunet")]
    write_small_durations(tmp_path / "train.csv")
    assert main(["train", *common, "--data-path", str(tmp_path / "train.csv"),
                 "--output-dir", str(tmp_path / "train")]) == EXIT_OK
    write_small_durations(tmp_path / "huge.csv", huge_row=3)
    capsys.readouterr()
    assert main(["evaluate", *common, "--data-path", str(tmp_path / "huge.csv"),
                 "--output-dir", str(tmp_path / "eval")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: row 4, encoded column 'duration': 1e+308 standardizes to inf" in err
    assert not (tmp_path / "eval" / "report.jsonl").exists()


def test_train_exits_3_on_a_validation_row_that_standardizes_to_inf(tmp_path, capsys):
    # the fold's mean and std come from its training rows, and are finite
    write_small_durations(tmp_path / "rows.csv")
    table = prepare_dataset(load_csv(str(tmp_path / "rows.csv"), NSL_KDD), "binary")
    row = int(stratified_kfold(table.labels, TRAIN_FOLDS, 0).val_indices(0)[0])
    write_small_durations(tmp_path / "rows.csv", huge_row=row)
    assert main(["train", "--dataset", "nsl-kdd", "--data-path", str(tmp_path / "rows.csv"),
                 "--levels", "4", "--epochs", "1", "--batch-size", "2",
                 "--output-dir", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"data error: fold 0: row {row + 1}, encoded column 'duration': "
            "1e+308 standardizes to inf") in err
    assert not (tmp_path / "out" / "report.jsonl").exists()


def test_non_finite_cell_exits_3(nsl_run, capsys):
    d, _ = nsl_run
    rows = (d / "ftp_http.csv").read_text().splitlines()
    rows[3] = rows[3].replace(",SF,0,", ",SF,nan,", 1)
    (d / "nan.csv").write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert evaluate(nsl_run, "nan.csv") == EXIT_DATA
    assert "nan.csv row 4, column 'src_bytes': non-finite" in capsys.readouterr().err


def test_non_utf8_file_exits_3(nsl_run, capsys):
    d, _ = nsl_run
    lines = (d / "ftp_http.csv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b",tcp,", b",tc\xff,", 1)
    (d / "latin.csv").write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert evaluate(nsl_run, "latin.csv") == EXIT_DATA
    assert "latin.csv line 5: not UTF-8 text (byte 0xff)" in capsys.readouterr().err


def test_nan_gradient_exits_4_naming_the_tensor(tmp_path, monkeypatch, capsys):
    backward = LuNetModel.backward

    def nan_backward(self, delta):
        dx = backward(self, delta)
        self.layers[-1].grads["W"][0, 0] = np.nan  # head.dense
        return dx

    monkeypatch.setattr(LuNetModel, "backward", nan_backward)
    assert main(["train", "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
                 "--output-dir", str(tmp_path)]) == EXIT_NUMERIC
    assert "non-finite parameter head.dense.W" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,path,message", [
    ("crossval", "--output-dir", "taken", "cannot create directory {}: "),
    ("train", "--output-dir", "taken", "cannot create directory {}: "),
    ("evaluate", "--output-dir", "taken", "cannot create directory {}: "),
    ("train", "--checkpoint", "taken/model.lunet", "cannot create directory {}: "),
    ("train", "--checkpoint", "out", "checkpoint path is a directory: {}\n"),
], ids=["crossval-output-dir", "train-output-dir", "evaluate-output-dir",
        "checkpoint-under-a-file", "checkpoint-is-a-directory"])
def test_unusable_output_path_exits_2_before_any_work(nsl_run, tmp_path, capsys,
                                                      command, flag, path, message):
    d, common = nsl_run
    (tmp_path / "taken").write_text("")  # a file where a directory must go
    argv = [command, *common, "--data-path", str(d / "ftp_http.csv"), "--folds", "2",
            "--output-dir", str(tmp_path / "out"), flag, str(tmp_path / path)]
    if command == "evaluate":
        argv += ["--checkpoint", str(d / "model.lunet")]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("config error: " + message.format(tmp_path / path.split("/")[0]))
    assert "Traceback" not in err and out == ""  # no epoch line: nothing trained


def test_checkpoint_directory_is_created(tmp_path):
    ckpt = tmp_path / "new" / "sub" / "model.lunet"
    assert main(["train", "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
                 "--output-dir", str(tmp_path / "out"), "--checkpoint", str(ckpt)]) == EXIT_OK
    assert ckpt.read_bytes().startswith(b"LUNET1\0")


# 512 synthetic rows, fold 0 of 5 held out: 408 training rows
@pytest.mark.parametrize("flag,value,message", [
    ("--epochs", "0", "epochs must be >= 1"),
    ("--lr", "0", "learning_rate must be > 0"),
    ("--batch-size", "1", "batch_size must be >= 2"),
    ("--batch-size", "600", "batch_size 600 exceeds the 408 training rows"),
    ("--subsample", "-5", "subsample must be >= 0"),
])
def test_bad_train_setting_exits_2(tmp_path, capsys, flag, value, message):
    argv = ["train", "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
            "--output-dir", str(tmp_path), flag, value]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv,config,message", [
    (["train", "--subsample", "3"], "",
     "subsample = 3 leaves class 'class0' with 1 samples, fewer than the split's k=5"),
    (["train"], "synth.samples = 4",
     "synth.samples = 4 leaves class 'class0' with 2 samples, fewer than the split's k=5"),
    (["crossval", "--subsample", "12", "--folds", "10"], "",
     "subsample = 12 leaves class 'class0' with 6 samples, fewer than the split's k=10"),
])
def test_table_shrunk_below_the_fold_count_exits_2(tmp_path, capsys, argv, config,
                                                   message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config + "\n")
    argv = [*argv, "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
            "--output-dir", str(tmp_path), "--config", str(cfg_file)]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err == f"config error: {message}\n" and out == ""


@pytest.mark.parametrize("subsample", ["0", "8"])
def test_dataset_file_below_the_fold_count_exits_3(nsl_run, capsys, subsample):
    d, common = nsl_run
    argv = ["crossval", *common, "--data-path", str(d / "ftp_http.csv"), "--folds", "10",
            "--subsample", subsample, "--output-dir", str(d / "cv")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: class 'normal' has ") and "fewer than k=10" in err


def test_csv_cell_over_the_field_limit_exits_3(nsl_run, capsys):
    d, common = nsl_run
    path = d / "huge_service.csv"
    write_nsl(path, ["ftp", "http", "s" * 200_000])
    argv = ["train", *common, "--data-path", str(path), "--output-dir", str(d / "huge")]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {path} row 3: unreadable CSV row "
                                       "(field larger than field limit (131072))\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lr_flag_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as e:
        main(["train", "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
              "--output-dir", str(tmp_path), f"--lr={value}"])
    assert e.value.code == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "argument --lr" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("line,message", [
    ("optimizer.learning_rate = nan", "bad optimizer.learning_rate value"),
    ("optimizer.rho = -inf", "bad config entry 'optimizer.rho = -inf'"),
    ("optimizer.epsilon = inf", "bad config entry 'optimizer.epsilon = inf'"),
    ("model.dropout_rate = nan", "bad config entry 'model.dropout_rate = nan'"),
    ("synth.separation = nan", "bad synth.separation value"),
    ("synth.samples = 0", "synth.samples must be > 0, got 0"),
    ("synth.samples = -3", "synth.samples must be > 0, got -3"),
    ("synth.features = 0", "synth.features must be > 0, got 0"),
    ("synth.separation = 0", "synth.separation must be > 0, got 0.0"),
    ("train.shuffle = maybe", "bad config entry 'train.shuffle = maybe'"),
    ("synth.classes = -1", "bad config entry 'synth.classes = -1'"),
])
def test_bad_config_setting_exits_2(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    argv = ["train", "--dataset", "synthetic", "--levels", "4", "--epochs", "1",
            "--output-dir", str(tmp_path), "--config", str(cfg_file)]
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err and out == ""


def test_settings_table_declares_every_key_and_flag_once():
    keys = [f.metadata["key"] for f in fields(RunConfig)]
    flags = [f.metadata["flag"] for f in fields(RunConfig) if f.metadata["flag"]]
    assert len(keys) == len(set(keys)) == 16
    assert len(flags) == len(set(flags)) == 12  # plus --config
    assert build_run_config(make_parser().parse_args(["train"])) == RunConfig()


def test_bad_config_value_names_key_and_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("folds = 4\ntrain.epochs = lots\n")
    with pytest.raises(ConfigError, match="line 2: bad train.epochs value"):
        parse_config_file(str(cfg_file))


def test_non_utf8_config_file_exits_2_naming_the_line(tmp_path, capsys):
    cfg_file = tmp_path / "latin.cfg"
    cfg_file.write_bytes(b"seed = 1\nfolds = \xff4\n")
    assert main(["train", "--config", str(cfg_file)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {cfg_file} line 2: not UTF-8 text (byte 0xff)\n")


CONFIG_KEYS = [f.metadata["key"] for f in fields(RunConfig)]
CONFIG_VALUES = ["1", "0", "-3", "2.5", "nan", "-inf", "1e400", "", "4,8", "a,,b",
                 "synthetic", "multi", "0x10", "١٢"]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS + ["train.shuffle", "Seed", ""]),
              st.sampled_from(["=", " = ", "==", ":", ""]),
              st.sampled_from(CONFIG_VALUES)).map(lambda t: "".join(t).encode()),
    st.sampled_from([b"", b"# comment", b"  ", b"\xff", b"seed = \xc3", b"\r"]),
    st.binary(max_size=12)), max_size=8))
def test_any_config_file_parses_or_raises_config_error(tmp_path_factory, lines):
    cfg_file = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg_file.write_bytes(b"\n".join(lines))
    try:
        parsed = parse_config_file(str(cfg_file))
    except ConfigError:
        return
    assert set(parsed) <= {f.name for f in fields(RunConfig)}
