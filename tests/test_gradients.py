"""Finite-difference checks for every layer's backward pass."""

import numpy as np

from lunet import LuNetSpec, build
from lunet.layers import Conv1D
from lunet.train import (gradient_check, model_gradient_check,
                         standard_gradient_suite)
from lunet.tensor import Rng


def test_standard_suite_within_tolerance():
    results = standard_gradient_suite()
    expected = {"conv1d", "maxpool", "batchnorm", "lstm", "dense", "relu", "gap",
                "dropout", "softmax_xent", "lunet_1block"}
    assert set(results) == expected
    for name, err in results.items():
        assert err < 1e-4, f"{name}: {err}"


def test_dense_layer_is_very_tight():
    results = standard_gradient_suite()
    assert results["dense"] < 1e-6


def test_corruption_hook_is_detected(monkeypatch):
    backward = Conv1D.backward

    def skewed(self, upstream):  # a wrong filter gradient, as a bug would give
        dx = backward(self, upstream)
        self.grads["filters"] += 1e-2
        return dx

    monkeypatch.setattr(Conv1D, "backward", skewed)
    results = standard_gradient_suite()
    assert results["conv1d"] > 1e-4
    assert results["dense"] < 1e-4


def test_zero_parameter_layer_still_checks_input_gradient():
    from lunet.layers import ReLU
    relu = ReLU()
    x = Rng(1).normal((2, 5))
    w = Rng(2).normal((2, 5))

    def loss_fn():
        return float((relu.forward(x.copy()) * w).sum())  # clips its input

    loss_fn()
    dx = relu.backward(w)
    report = gradient_check(loss_fn, {"input": (x, dx)})
    assert list(report) == ["input"]
    assert report["input"] < 1e-6
    assert not relu.params  # empty parameter report


def test_full_one_block_model_on_2x32x1():
    model = build(LuNetSpec(input_features=32, num_classes=2, levels=(4,),
                            final_conv_filters=4, init_seed=3))
    x = Rng(4).normal((2, 32))
    report = model_gradient_check(model, x, np.array([0, 1]), samples=15)
    worst = max(report.values())
    assert worst < 1e-4, max(report, key=report.get)
