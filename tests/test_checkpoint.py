import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunet import LuNetSpec, build
from lunet.checkpoint import (MAGIC, VERSION, CheckpointError, load_checkpoint,
                              save_checkpoint)
from lunet.cli import EXIT_DATA, main
from lunet.tensor import Rng
from lunet.train import RmsProp, TrainConfig, train_epoch

# A version-1 checkpoint (one tensor per LSTM gate) of a trained
# LuNetSpec(input_features=32, num_classes=3, levels=(4,), final_conv_filters=4,
# init_seed=3), with its infer-mode outputs on Rng(4).normal((5, 32)).
V1_CHECKPOINT = Path(__file__).resolve().parent / "data" / "checkpoint_v1.lunet"
V1_PROBS = V1_CHECKPOINT.with_name("checkpoint_v1_probs.npy")
# A version-2 checkpoint (names joined with "|" into the meta block) of the
# `trained_model` fixture's model, saved as `save_default` saves it.
V2_CHECKPOINT = V1_CHECKPOINT.with_name("checkpoint_v2.lunet")


@pytest.fixture()
def trained_model():
    model = build(LuNetSpec(input_features=16, num_classes=3, levels=(4,),
                            final_conv_filters=4, init_seed=2))
    x = Rng(1).normal((24, 16))
    y = np.arange(24) % 3
    opt = RmsProp()
    for epoch in range(3):
        train_epoch(model, x, y, TrainConfig(batch_size=8, seed=0), opt, epoch)
    model.set_mode("infer")
    return model, x


def save_default(path, model):
    mean, std = np.zeros(16), np.ones(16)
    save_checkpoint(path, model, mean, std, ["a", "b", "c"],
                    [f"col{i}" for i in range(16)], "multi")


class TestRoundTrip:
    def test_infer_outputs_bitwise_identical(self, tmp_path, trained_model):
        model, x = trained_model
        before = model.forward(x)
        path = tmp_path / "m.lunet"
        save_default(path, model)
        loaded, mean, std, class_names, cols, task = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.forward(x), before)
        assert class_names == ["a", "b", "c"]
        assert cols == [f"col{i}" for i in range(16)]
        assert task == "multi"
        np.testing.assert_array_equal(mean, 0.0)
        np.testing.assert_array_equal(std, 1.0)

    def test_batchnorm_running_stats_survive(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_default(path, model)
        loaded, *_ = load_checkpoint(path)
        orig = dict(model.named_state())
        for name, value in loaded.named_state():
            np.testing.assert_array_equal(value, orig[name])

    def test_save_twice_is_byte_identical(self, tmp_path, trained_model):
        model, _ = trained_model
        a, b = tmp_path / "a.lunet", tmp_path / "b.lunet"
        save_default(a, model)
        save_default(b, model)
        assert a.read_bytes() == b.read_bytes()

    def test_spec_round_trip(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_default(path, model)
        loaded, *_ = load_checkpoint(path)
        assert loaded.spec == model.spec


class TestVersion1:
    def test_loads_with_bitwise_identical_outputs(self):
        assert V1_CHECKPOINT.read_bytes()[len(MAGIC):len(MAGIC) + 4] == struct.pack("<I", 1)
        model, mean, std, class_names, cols, task = load_checkpoint(V1_CHECKPOINT)
        np.testing.assert_array_equal(model.forward(Rng(4).normal((5, 32))),
                                      np.load(V1_PROBS))
        assert class_names == ["a", "b", "c"]
        assert cols == [f"col{i}" for i in range(32)] and task == "multi"
        assert mean.shape == std.shape == (32,)

    def test_resave_writes_current_version_with_stacked_gates(self, tmp_path):
        model, mean, std, class_names, cols, task = load_checkpoint(V1_CHECKPOINT)
        path = tmp_path / "v2.lunet"
        save_checkpoint(path, model, mean, std, class_names, cols, task)
        blob = path.read_bytes()
        assert blob[len(MAGIC):len(MAGIC) + 4] == struct.pack("<I", VERSION)
        assert b"level0.lstm.U_p" not in blob and b"level0.lstm.U" in blob
        reloaded, *_ = load_checkpoint(path)
        x = Rng(4).normal((5, 32))
        np.testing.assert_array_equal(reloaded.forward(x), model.forward(x))


class TestVersion2:
    def test_loads_with_bitwise_identical_outputs(self, trained_model):
        model, x = trained_model
        assert V2_CHECKPOINT.read_bytes()[len(MAGIC):len(MAGIC) + 4] == struct.pack("<I", 2)
        loaded, mean, std, class_names, cols, task = load_checkpoint(V2_CHECKPOINT)
        np.testing.assert_array_equal(loaded.forward(x), model.forward(x))
        assert class_names == ["a", "b", "c"]
        assert cols == [f"col{i}" for i in range(16)] and task == "multi"

    def test_spec_holding_another_pool_size_exits_3(self, tmp_path, capsys):
        # pool size is a model constant now; a file that records another one
        # must not load as a pool-2 model
        path = tmp_path / "pool3.lunet"
        path.write_bytes(V2_CHECKPOINT.read_bytes().replace(b"\npool_size=2\n",
                                                            b"\npool_size=3\n", 1))
        assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path} byte 11: unbuildable model spec" in err
        assert "pool_size is 3, but lunet's is fixed at 2" in err


class TestNames:
    def test_any_character_survives(self, tmp_path, trained_model):
        # "|" joined the names in versions 1 and 2, and a newline ended the
        # meta block's line
        model, _ = trained_model
        names = ["a|b", "line\nbreak", "k=v"]
        cols = [f"service=svc|{i}" for i in range(15)] + ["flag=\r\né"]
        path = tmp_path / "m.lunet"
        save_checkpoint(path, model, np.zeros(16), np.ones(16), names, cols, "multi")
        _, _, _, got_names, got_cols, _ = load_checkpoint(path)
        assert got_names == names and got_cols == cols


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.lunet"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v99.lunet"
        path.write_bytes(MAGIC + struct.pack("<I", 99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_default(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_default(path, model)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_standardize_shape_checked(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_checkpoint(path, model, np.zeros(15), np.ones(15), ["a", "b", "c"],
                        [f"col{i}" for i in range(16)], "multi")
        with pytest.raises(CheckpointError, match="standardize.mean"):
            load_checkpoint(path)

    def test_class_name_count_checked(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_checkpoint(path, model, np.zeros(16), np.ones(16), ["a", "b"],
                        [f"col{i}" for i in range(16)], "multi")
        with pytest.raises(CheckpointError, match="2 class names for 3 classes"):
            load_checkpoint(path)

    def test_encoded_column_count_checked(self, tmp_path, trained_model):
        model, _ = trained_model
        path = tmp_path / "m.lunet"
        save_checkpoint(path, model, np.zeros(16), np.ones(16), ["a", "b", "c"],
                        [f"col{i}" for i in range(32)], "multi")
        with pytest.raises(CheckpointError,
                           match="32 encoded column names for 16 input features"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def valid_blob(tmp_path_factory):
    model = build(LuNetSpec(input_features=16, num_classes=3, levels=(4,),
                            final_conv_filters=4, init_seed=2))
    path = tmp_path_factory.mktemp("valid") / "m.lunet"
    save_default(path, model)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_checkpoint_error(valid_blob, tmp_path_factory,
                                                             data):
    source = data.draw(st.sampled_from([valid_blob, V1_CHECKPOINT.read_bytes(),
                                        V2_CHECKPOINT.read_bytes()]),
                       label="current, version-1 or version-2 file")
    n = len(source)
    if data.draw(st.booleans(), label="truncate"):
        blob = source[:data.draw(st.integers(0, n - 1), label="length")]
    else:
        at = data.draw(st.integers(0, n - 1), label="offset")
        flipped = source[at] ^ data.draw(st.integers(1, 255), label="xor")
        blob = source[:at] + bytes([flipped]) + source[at + 1:]
    path = tmp_path_factory.getbasetemp() / "fuzz.lunet"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError as e:
        assert str(path) in str(e) and "byte" in str(e)
