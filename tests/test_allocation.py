"""What a model holds: a built model holds its parameters and batch-norm
statistics, a layer holds the gradients of its last backward until the
RMSprop step takes them, and `load_checkpoint` checks the stored tensor
shapes against the spec, then builds the layers around the stored tensors
without drawing a weight."""

import dataclasses
import io
import os
import textwrap
import tracemalloc

import numpy as np
import pytest

from blas_subprocess import run_python
from lunet import LuNetSpec, build
from lunet.binio import Reader, write_tensor
from lunet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from lunet import layers
from lunet.layers import LSTM, BatchNorm, Conv1D, Dense
from lunet.model import tensor_shapes
from lunet.tensor import Rng
from lunet.train import RmsProp, cross_entropy_delta, one_hot

PAPER = LuNetSpec(input_features=122, num_classes=2)
SLACK = 64 << 10  # layer objects, names and dicts


def tensor_bytes(model) -> int:
    return (sum(v.nbytes for *_, v in model.named_params())
            + sum(v.nbytes for _, v in model.named_state()))


def held(fn):
    """(fn's result, the bytes it left allocated), by tracemalloc, after a
    first call has made whatever a process makes once."""
    fn()
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def save(path, model, features):
    save_checkpoint(path, model, np.zeros(features), np.ones(features),
                    [f"c{i}" for i in range(model.spec.num_classes)],
                    [f"col{i}" for i in range(features)], "binary")


class TestModelHolds:
    def test_a_built_one_its_parameters_and_statistics(self):
        model, nbytes = held(lambda: build(PAPER))
        assert tensor_bytes(model) > 8_000_000
        assert nbytes <= tensor_bytes(model) + SLACK

    def test_a_loaded_one_its_stored_tensors(self, tmp_path):
        path = tmp_path / "paper.lunet"
        save(path, build(PAPER), PAPER.input_features)
        (model, mean, std, *_), nbytes = held(lambda: load_checkpoint(path))
        assert nbytes <= tensor_bytes(model) + mean.nbytes + std.nbytes + SLACK

    def test_a_load_drops_the_file_bytes_before_the_build(self, tmp_path):
        # the stored tensors and the parameters `build` makes before they
        # replace them come to about 2x the tensors; the file's bytes held
        # through the build would add a third copy
        path = tmp_path / "paper.lunet"
        save(path, build(PAPER), PAPER.input_features)
        load_checkpoint(path)
        tracemalloc.start()
        try:
            model = load_checkpoint(path)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * tensor_bytes(model), f"{peak / tensor_bytes(model):.2f}x"


class TestReaderTensor:
    def test_copies_the_stored_data_once(self):
        # the bytes of one stored tensor are viewed, not sliced, so the peak
        # is the returned copy plus the finiteness mask (1/8 of it)
        buf = io.BytesIO()
        value = Rng(5).normal((1024, 1024))
        write_tensor(buf, "w", value)
        reader = Reader("w.bin", buf.getvalue(), ValueError, "tensor file")
        del buf
        tracemalloc.start()
        try:
            name, got = reader.tensor()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert name == "w" and np.array_equal(got, value) and got.flags.writeable
        assert peak <= 1.2 * value.nbytes, f"{peak / value.nbytes:.2f}x"


# each parameterized layer type, made alike on every call, with a train input
LAYERS = {
    "conv": (lambda: Conv1D(3, 4, 3, Rng(1)), (5, 8, 3)),
    "batchnorm": (lambda: BatchNorm(4), (6, 5, 4)),
    "lstm": (lambda: LSTM(3, 4, Rng(3)), (2, 5, 3)),
    "dense": (lambda: Dense(4, 3, Rng(4)), (5, 4)),
}


@pytest.fixture(params=[False, True], ids=["inline", "queued"])
def queue_products(request, monkeypatch):
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", request.param)


def forward_backward(layer, shape, seed):
    """A train-mode forward of seeded rows, then a backward of a seeded
    upstream; each array stays unwritten until `grads` is read."""
    out = layer.forward(Rng(seed).normal(shape))
    layer.backward(Rng(seed + 1).normal(out.shape))


@pytest.mark.usefixtures("queue_products")
@pytest.mark.parametrize("kind", LAYERS)
class TestGradientLifecycle:
    def test_none_before_any_backward(self, kind):
        make, shape = LAYERS[kind]
        layer = make()
        assert layer.grads == {}
        layer.forward(Rng(1).normal(shape))
        assert layer.grads == {}

    def test_a_backward_writes_one_per_parameter(self, kind):
        make, shape = LAYERS[kind]
        layer = make()
        forward_backward(layer, shape, 1)
        assert layer.grads.keys() == layer.params.keys()
        for pname, value in layer.params.items():
            assert layer.grads[pname].shape == value.shape

    def test_a_second_backward_gives_the_gradients_of_a_lone_one(self, kind):
        make, shape = LAYERS[kind]
        twice, once = make(), make()
        forward_backward(twice, shape, 1)
        forward_backward(twice, shape, 3)
        forward_backward(once, shape, 3)
        for pname in once.params:
            assert twice.grads[pname].tobytes() == once.grads[pname].tobytes(), pname


@pytest.mark.usefixtures("queue_products")
def test_an_rmsprop_step_takes_every_gradient():
    model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                            final_conv_filters=4))
    probs = model.forward(Rng(3).normal((4, 16)))
    model.backward(cross_entropy_delta(probs, one_hot(np.array([0, 1, 1, 0]), 2)))
    assert any(layer.grads for layer in model.layers)
    RmsProp().step(model)
    assert all(layer.grads == {} for layer in model.layers)


class TestGradients:
    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            Dense(4, 2, Rng(2)).grads["V"]

    def test_backward_makes_them_and_a_model_that_infers_holds_none(self):
        model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
        x = Rng(3).normal((4, 16))
        model.set_mode("infer")
        model.forward(x)
        assert all(dict(layer.grads) == {} for layer in model.layers)
        model.set_mode("train")
        model.backward(model.forward(x) / 4)
        assert all(layer.grads.keys() == layer.params.keys() for layer in model.layers)


class TestLoadDrawsNothing:
    def test_no_rng_normal_call(self, tmp_path, monkeypatch):
        spec = LuNetSpec(input_features=16, num_classes=3, levels=(4,), final_conv_filters=4)
        saved = build(spec)
        path = tmp_path / "m.lunet"
        save(path, saved, 16)

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a weight")

        monkeypatch.setattr(Rng, "normal", draw)
        model = load_checkpoint(path)[0]
        for (name, _, _, want), (_, _, _, got) in zip(saved.named_params(),
                                                      model.named_params()):
            np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("spec", [
        PAPER,
        LuNetSpec(input_features=16, num_classes=3, levels=(4,), final_conv_filters=4),
        # 41 -> conv 39 -> pool 19 -> conv 17 -> pool 8: each pool drops a remainder
        LuNetSpec(input_features=41, num_classes=5, levels=(8, 16), final_conv_filters=6),
    ])
    def test_tensor_shapes_walk_the_spec_as_build_does(self, spec):
        model = build(spec)
        want = {name: v.shape for name, _, _, v in model.named_params()}
        want.update((name, v.shape) for name, v in model.named_state())
        assert tensor_shapes(spec) == want


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_hostile_spec_fails_before_any_layer_is_built(tmp_path):
    """A file whose spec says levels=(1024,) but which holds a levels=(4,)
    model's tensors: at 1024 cells the layers would take about 100 MB."""
    small = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
    small.spec = dataclasses.replace(small.spec, levels=(1024,))
    path = tmp_path / "hostile.lunet"
    save(path, small, 16)
    with pytest.raises(CheckpointError,
                       match=r"'level0.conv.filters' has shape \(4, 1, 3\), expected \(1024, 1, 3\)"):
        load_checkpoint(path)
    # the peak RSS of this process's memory map (VmHWM): a child's ru_maxrss
    # starts at its parent's peak on Linux, and pytest's is larger than the
    # growth this bounds
    code = textwrap.dedent(f"""
        import contextlib, io

        def peak_kib():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        from lunet.cli import main
        before = peak_kib()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", "--dataset", "synthetic", "--checkpoint", {str(path)!r},
                         "--output-dir", {str(tmp_path / "out")!r}])
        print(code, (peak_kib() - before) // 1024)
        print(err.getvalue())
    """)
    proc = run_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, err = proc.stdout.split("\n", 1)
    exit_code, grown_mib = map(int, status.split())
    assert exit_code == 3 and "Traceback" not in err + proc.stderr
    assert "expected (1024, 1, 3)" in err
    assert grown_mib < 40
