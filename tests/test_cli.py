"""End-to-end command line tests on the synthetic dataset."""

import json
import os
import subprocess
import sys

import pytest

from lunet.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_GRADCHECK, EXIT_OK,
                       RunConfig, build_run_config, cmd_gradcheck, main,
                       make_parser, parse_config_file)
from lunet.layers import Conv1D
from report_parser import parse_report

FAST = ["--dataset", "synthetic", "--task", "binary", "--levels", "8",
        "--epochs", "25", "--lr", "0.005", "--batch-size", "32", "--seed", "7"]


def run(argv):
    return main(argv)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.jsonl"), encoding="utf-8") as fh:
        return parse_report(fh.read())


@pytest.fixture(scope="module")
def crossval_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cv"))
    code = run(["crossval", *FAST, "--folds", "2", "--output-dir", out])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("train"))
    ckpt = os.path.join(out, "model.lunet")
    code = run(["train", *FAST, "--output-dir", out, "--checkpoint", ckpt])
    assert code == EXIT_OK
    return out, ckpt


class TestCrossval:
    def test_artifacts_written(self, crossval_dir):
        for name in ("report.jsonl", "report.csv",
                     "confusion_fold0.csv", "confusion_fold1.csv"):
            assert os.path.exists(os.path.join(crossval_dir, name))

    def test_learns_separable_data(self, crossval_dir):
        report = read_report(crossval_dir)
        assert report.aggregate.folds == 2
        assert report.aggregate.acc > 0.95

    def test_report_internally_consistent(self, crossval_dir):
        report = read_report(crossval_dir)
        for _, ms, cm in report.per_fold:
            assert ms.tp + ms.tn + ms.fp + ms.fn == cm.counts.sum()
        assert set(report.per_class) == {"class0", "class1"}

    def test_stdout_is_jsonl_then_table(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run(["crossval", *FAST, "--folds", "2", "--epochs", "2",
                    "--output-dir", out]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # epoch logs and the report records are machine parseable json
        parsed = 0
        for line in lines:
            if line.startswith("{"):
                json.loads(line)
                parsed += 1
        assert parsed >= 2 + 2 * 2  # fold/aggregate records plus epoch logs
        assert any(line.strip().startswith("avg") for line in lines)

    def test_folds_below_two_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run(["crossval", *FAST, "--folds", "1", "--output-dir", out])
        assert code == EXIT_CONFIG
        assert "folds" in capsys.readouterr().err

    def test_missing_data_path_is_config_error(self, tmp_path):
        out = str(tmp_path / "o")
        code = run(["crossval", "--dataset", "nsl-kdd", "--folds", "2",
                    "--output-dir", out])
        assert code == EXIT_CONFIG

    def test_nonexistent_data_path_is_config_error(self, tmp_path):
        code = run(["crossval", "--dataset", "nsl-kdd", "--folds", "2",
                    "--data-path", str(tmp_path / "missing.csv"),
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


def write_nsl_kdd(path, rows):
    """`rows` NSL-KDD lines, normal and neptune alternating; neptune rows
    have a large src_bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(rows):
            attack = i % 2
            cells = ([str(i % 3), ("tcp", "udp")[i % 2], ("http", "ftp", "smtp")[i % 3], "SF",
                      str(5000 * attack + i)] + [f"0.{i % 10}"] * 36
                     + [("normal", "neptune")[attack], "20"])
            fh.write(",".join(cells) + "\n")


def test_crossval_output_is_the_same_with_a_cold_and_a_warm_table_cache(tmp_path, capsys):
    csv_path = tmp_path / "kdd.csv"
    write_nsl_kdd(csv_path, 48)
    runs = []
    for name in ("cold", "warm"):
        out = tmp_path / name
        argv = ["crossval", "--dataset", "nsl-kdd", "--data-path", str(csv_path),
                "--task", "binary", "--levels", "4", "--epochs", "2", "--batch-size", "8",
                "--folds", "2", "--seed", "5", "--output-dir", str(out)]
        assert run(argv) == EXIT_OK
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((capsys.readouterr().out, files))
        assert (tmp_path / "kdd.csv.lunetcache").is_file()
    assert set(runs[0][1]) >= {"report.jsonl", "confusion_fold0.csv", "confusion_fold1.csv"}
    assert runs[0] == runs[1]


class TestTrainEvaluate:
    def test_checkpoint_written(self, trained):
        _, ckpt = trained
        assert os.path.getsize(ckpt) > 0
        with open(ckpt, "rb") as fh:
            assert fh.read(7) == b"LUNET1\0"

    def test_same_seed_gives_identical_checkpoint_bytes(self, trained,
                                                        tmp_path):
        _, ckpt = trained
        out2 = str(tmp_path / "again")
        ckpt2 = os.path.join(out2, "model.lunet")
        assert run(["train", *FAST, "--output-dir", out2,
                    "--checkpoint", ckpt2]) == EXIT_OK
        with open(ckpt, "rb") as a, open(ckpt2, "rb") as b:
            assert a.read() == b.read()
        assert read_report(trained[0]).aggregate.acc == \
            read_report(out2).aggregate.acc

    def test_evaluate_reproduces_training_distribution(self, trained,
                                                       tmp_path):
        _, ckpt = trained
        out = str(tmp_path / "eval")
        code = run(["evaluate", *FAST, "--checkpoint", ckpt,
                    "--output-dir", out])
        assert code == EXIT_OK
        # evaluation covers the full dataset, most of which was trained on
        report = read_report(out)
        held_out = read_report(trained[0]).aggregate.acc
        assert report.aggregate.acc >= held_out - 0.05

    def test_evaluate_twice_is_deterministic(self, trained, tmp_path):
        _, ckpt = trained
        reports = []
        for name in ("e1", "e2"):
            out = str(tmp_path / name)
            assert run(["evaluate", *FAST, "--checkpoint", ckpt,
                        "--output-dir", out]) == EXIT_OK
            with open(os.path.join(out, "report.jsonl"), encoding="utf-8") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]

    def test_evaluate_requires_checkpoint_flag(self, tmp_path):
        code = run(["evaluate", *FAST, "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_corrupted_checkpoint_is_data_error(self, trained, tmp_path,
                                                capsys):
        _, ckpt = trained
        bad = tmp_path / "bad.lunet"
        blob = bytearray(open(ckpt, "rb").read())
        blob[:7] = b"GARBAGE"
        bad.write_bytes(bytes(blob))
        code = run(["evaluate", *FAST, "--checkpoint", str(bad),
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_task_mismatch_is_config_error(self, trained, tmp_path):
        _, ckpt = trained
        argv = [a for a in FAST]
        argv[argv.index("binary")] = "multi"
        code = run(["evaluate", *argv, "--checkpoint", ckpt,
                    "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


class TestGradcheckCommand:
    def test_passes_and_prints_per_layer_lines(self, capsys):
        assert run(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert {r["layer"] for r in records} >= {"conv1d", "lstm", "batchnorm"}
        assert all(r["pass"] for r in records)
        assert "gradcheck passed" in out

    def test_failure_names_the_layer_and_exits_5(self, capsys, monkeypatch):
        backward = Conv1D.backward

        def skewed(self, upstream):  # a wrong filter gradient, as a bug would give
            dx = backward(self, upstream)
            self.grads["filters"] += 1e-2
            return dx

        monkeypatch.setattr(Conv1D, "backward", skewed)
        assert cmd_gradcheck() == EXIT_GRADCHECK
        out = capsys.readouterr().out
        assert "gradcheck FAILED" in out
        assert "conv1d" in out.splitlines()[-1]


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "dataset = synthetic\n"
            "folds = 4\n"
            "model.levels = 4,8\n"
            "train.epochs = 3\n"
            "optimizer.learning_rate = 0.01\n"
            "synth.features = 48\n")
        parsed = parse_config_file(str(cfg_file))
        assert parsed["levels"] == (4, 8)
        assert parsed["learning_rate"] == 0.01
        args = make_parser().parse_args(
            ["crossval", "--config", str(cfg_file), "--folds", "6"])
        cfg = build_run_config(args)
        # flag beats file, file beats default
        assert cfg.folds == 6
        assert cfg.epochs == 3
        assert cfg.synth_features == 48
        assert cfg.batch_size == RunConfig().batch_size

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("folds = 4\nnot_a_key = 1\n")
        args = make_parser().parse_args(
            ["crossval", "--config", str(cfg_file)])
        assert main(["crossval", "--config", str(cfg_file)]) == EXIT_CONFIG
        with pytest.raises(Exception, match="line 2"):
            parse_config_file(str(cfg_file))
        assert args is not None

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("folds = many\n")
        assert main(["crossval", "--config", str(cfg_file)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["crossval", "--config",
                     str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_console_script_entry_point(tmp_path):
    out = str(tmp_path / "o")
    proc = subprocess.run(
        [sys.executable, "-m", "lunet.cli", "crossval", *FAST,
         "--folds", "2", "--epochs", "1", "--output-dir", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "report.jsonl"))


def test_stdout_closed_after_one_line_is_exit_1_without_traceback(tmp_path):
    # unbuffered, so each epoch line is its own write; an epoch takes about
    # 0.1 s, long after the pipe is closed
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "lunet.cli", "train", "--dataset", "synthetic",
         "--levels", "4", "--epochs", "20", "--output-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert first.startswith('{"fold": 0, "epoch": 0,')
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err
