"""What a model holds: a built model holds its parameters and batch-norm
statistics, a layer makes each gradient accumulator, zeroed, at its first
read, and `load_checkpoint` checks the stored tensor shapes against the
spec, then builds the layers around the stored tensors without drawing a
weight."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lunet import LuNetSpec, build
from lunet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from lunet.layers import Conv1D, Dense
from lunet.model import tensor_shapes
from lunet.tensor import Rng

SRC = Path(__file__).resolve().parent.parent / "src"
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


class TestGradients:
    def test_read_as_zeros_before_the_first_backward(self):
        layers = [Conv1D(3, 4, 3, Rng(1)), Dense(4, 2, Rng(2))]
        for layer in layers:
            assert dict(layer.grads) == {}  # none made yet
            for pname, value in layer.params.items():
                g = layer.grads[pname]
                assert g.shape == value.shape and not g.any()
                assert layer.grads[pname] is g  # made once
            assert layer.grads.keys() == layer.params.keys()

    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            Dense(4, 2, Rng(2)).grads["V"]

    def test_zero_grads_zeroes_what_was_made(self):
        layer = Dense(4, 2, Rng(2))
        layer.grads["W"] += 1.0
        layer.zero_grads()
        assert not layer.grads["W"].any() and not layer.grads["b"].any()

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
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
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, err = proc.stdout.split("\n", 1)
    exit_code, grown_mib = map(int, status.split())
    assert exit_code == 3 and "Traceback" not in err + proc.stderr
    assert "expected (1024, 1, 3)" in err
    assert grown_mib < 40
