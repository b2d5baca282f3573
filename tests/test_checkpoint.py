import io
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunet import LuNetSpec, build
from lunet.binio import Reader, write_tensor
from lunet.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from lunet.cli import EXIT_DATA, main
from lunet.tensor import Rng
from lunet.train import RmsProp, TrainConfig, train_epoch

# A checkpoint of a trained LuNetSpec(input_features=32, num_classes=3,
# levels=(4,), final_conv_filters=4, init_seed=3), with its infer-mode outputs
# on Rng(4).normal((5, 32)); the outputs were recorded when the model was
# trained, before the file was rewritten in the current format.
TRAINED_CHECKPOINT = Path(__file__).resolve().parent / "data" / "checkpoint_trained.lunet"
TRAINED_PROBS = TRAINED_CHECKPOINT.with_name("checkpoint_trained_probs.npy")


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


def checkpoint_offsets(blob: bytes) -> dict:
    """Byte offsets of a checkpoint's spec and meta blocks, its tensor count
    and its first two tensor records."""
    r = Reader("checkpoint", blob, CheckpointError, "checkpoint")
    r.take(len(MAGIC) + 4)
    out = {"spec": r.pos}
    r.block()
    out["meta"] = r.pos
    r.block()
    r.strings(), r.strings()
    out["count"] = r.pos
    r.unpack("<I")
    out["tensor0"] = r.pos
    r.tensor()
    out["tensor1"] = r.pos
    return out


def tensor_records(blob: bytes) -> dict:
    """Each tensor's name -> (start, end) byte offsets of its record."""
    r = Reader("checkpoint", blob, CheckpointError, "checkpoint")
    r.skip(checkpoint_offsets(blob)["count"])
    (count,) = r.unpack("<I")
    records = {}
    for _ in range(count):
        at = r.pos
        name, _ = r.tensor()
        records[name] = (at, r.pos)
    return records


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


class TestTrainedCheckpoint:
    def test_loads_with_bitwise_identical_outputs(self):
        assert TRAINED_CHECKPOINT.read_bytes()[len(MAGIC):len(MAGIC) + 4] == struct.pack("<I", 3)
        model, mean, std, class_names, cols, task = load_checkpoint(TRAINED_CHECKPOINT)
        np.testing.assert_array_equal(model.forward(Rng(4).normal((5, 32))),
                                      np.load(TRAINED_PROBS))
        assert class_names == ["a", "b", "c"]
        assert cols == [f"col{i}" for i in range(32)] and task == "multi"
        assert mean.shape == std.shape == (32,)

    def test_resave_is_byte_identical(self, tmp_path):
        model, mean, std, class_names, cols, task = load_checkpoint(TRAINED_CHECKPOINT)
        path = tmp_path / "m.lunet"
        save_checkpoint(path, model, mean, std, class_names, cols, task)
        assert path.read_bytes() == TRAINED_CHECKPOINT.read_bytes()


class TestNames:
    def test_any_character_survives(self, tmp_path, trained_model):
        # characters that a "|"-joined list or a key=value line would split on
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

    @pytest.mark.parametrize("version", [1, 2, 4, 99])
    def test_unsupported_version(self, tmp_path, version):
        path = tmp_path / f"v{version}.lunet"
        path.write_bytes(MAGIC + struct.pack("<I", version))
        with pytest.raises(CheckpointError, match=f"byte 7: unsupported checkpoint "
                                                  f"version {version}$"):
            load_checkpoint(path)

    def test_old_version_exits_3_through_main(self, tmp_path, capsys):
        path = tmp_path / "v2.lunet"
        blob = TRAINED_CHECKPOINT.read_bytes()
        path.write_bytes(MAGIC + struct.pack("<I", 2) + blob[len(MAGIC) + 4:])
        assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        assert f"{path} byte 7: unsupported checkpoint version 2" in capsys.readouterr().err

    def test_spec_holding_pool_size_exits_3(self, tmp_path, capsys):
        # files written before pool size became a model constant record it;
        # such a file must not load
        blob = TRAINED_CHECKPOINT.read_bytes()
        at = len(MAGIC) + 4
        (n,) = struct.unpack_from("<I", blob, at)
        spec = blob[at + 4:at + 4 + n] + b"pool_size=2\n"
        path = tmp_path / "pool.lunet"
        path.write_bytes(blob[:at] + struct.pack("<I", len(spec)) + spec
                         + blob[at + 4 + n:])
        assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path} byte 11: unbuildable model spec" in err
        assert "unknown spec key 'pool_size'" in err

    def test_spec_fault_outranks_a_truncated_last_tensor(self, tmp_path):
        blob = TRAINED_CHECKPOINT.read_bytes()
        at = len(MAGIC) + 4
        (n,) = struct.unpack_from("<I", blob, at)
        spec = blob[at + 4:at + 4 + n] + b"pool_size=2\n"
        path = tmp_path / "pool.lunet"
        path.write_bytes(blob[:at] + struct.pack("<I", len(spec)) + spec
                         + blob[at + 4 + n:-1])
        with pytest.raises(CheckpointError, match=f"^{path} byte 11: unbuildable model "
                                                  "spec: ValueError: unknown spec key"):
            load_checkpoint(path)

    def test_wrong_shaped_tensor_names_its_own_record(self, tmp_path):
        blob = TRAINED_CHECKPOINT.read_bytes()
        start, end = tensor_records(blob)["level0.conv.bias"]
        wrong = io.BytesIO()
        write_tensor(wrong, "level0.conv.bias", np.zeros(5))
        path = tmp_path / "bias.lunet"
        path.write_bytes(blob[:start] + wrong.getvalue() + blob[end:])
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert str(e.value) == (f"{path} byte {start}: tensor 'level0.conv.bias' has "
                                "shape (5,), expected (4,)")

    @pytest.mark.parametrize("block,extra,message", [
        # the meta block of a "multi" file gains class_names=x|y and a second
        # task=binary line; kept last-wins, it once loaded as "binary"
        ("meta", b"class_names=x|y\ntask=binary\n", "repeated key 'task'"),
        ("meta", b"class_names=x|y\n", "metadata keys ['task', 'class_names'], "
                                        "expected ['task']"),
        ("spec", b"levels=4\n", "repeated key 'levels'"),
    ], ids=["meta-repeated-task", "meta-unknown-key", "spec-repeated-levels"])
    def test_block_with_a_repeated_or_unknown_key_exits_3(self, tmp_path, capsys,
                                                           block, extra, message):
        blob = TRAINED_CHECKPOINT.read_bytes()
        at = checkpoint_offsets(blob)[block]
        (n,) = struct.unpack_from("<I", blob, at)
        text = blob[at + 4:at + 4 + n] + extra
        path = tmp_path / "keys.lunet"
        path.write_bytes(blob[:at] + struct.pack("<I", len(text)) + text
                         + blob[at + 4 + n:])
        assert main(["evaluate", "--dataset", "synthetic", "--task", "binary",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        assert f"{path} byte {at}: {message}\n" in capsys.readouterr().err

    def test_repeated_tensor_exits_3(self, tmp_path, capsys):
        blob = TRAINED_CHECKPOINT.read_bytes()
        offsets = checkpoint_offsets(blob)
        count_at, first, second = offsets["count"], offsets["tensor0"], offsets["tensor1"]
        (count,) = struct.unpack_from("<I", blob, count_at)
        path = tmp_path / "twice.lunet"
        path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1)
                         + blob[first:second] + blob[first:])
        assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        assert (f"{path} byte {second}: repeated tensor 'standardize.mean'\n"
                in capsys.readouterr().err)

    def test_tensor_the_spec_does_not_name_exits_3(self, tmp_path, capsys):
        blob = TRAINED_CHECKPOINT.read_bytes()
        count_at = checkpoint_offsets(blob)["count"]
        (count,) = struct.unpack_from("<I", blob, count_at)
        extra = io.BytesIO()
        write_tensor(extra, "level9.conv.filters", np.zeros((2, 2)))
        path = tmp_path / "extra.lunet"
        path.write_bytes(blob[:count_at] + struct.pack("<I", count + 1)
                         + blob[count_at + 4:] + extra.getvalue())
        assert main(["evaluate", "--dataset", "synthetic", "--task", "multi",
                     "--checkpoint", str(path), "--output-dir", str(tmp_path)]) == EXIT_DATA
        assert (f"{path} byte {len(blob)}: unknown tensor 'level9.conv.filters'\n"
                in capsys.readouterr().err)

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
    source = data.draw(st.sampled_from([valid_blob, TRAINED_CHECKPOINT.read_bytes()]),
                       label="untrained or trained file")
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
