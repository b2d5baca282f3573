import math

import numpy as np
import pytest

from lunet import LuNetSpec, build
from lunet.data import apply_standardization, fit_standardization, synth_dataset
from lunet.tensor import Rng
from lunet.train import (EPSILON, RHO, RmsProp, RmsPropConfig, TrainConfig,
                         cross_entropy_loss, fit, one_hot, train_epoch)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss = cross_entropy_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss <= 1e-11

    def test_uniform_prediction(self):
        loss = cross_entropy_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert abs(loss - math.log(2)) < 1e-12

    def test_clamp_floor_keeps_loss_finite(self):
        probs = np.array([[1e-20, 1.0 - 1e-20]])
        loss = cross_entropy_loss(probs, np.array([[1.0, 0.0]]))
        assert abs(loss - (-math.log(1e-12))) < 1e-9
        assert abs(loss - 27.631) < 1e-2

    def test_rejects_non_onehot(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([[0.9, 0.9]]), np.array([[1.0, 0.0]]))


def tiny_model(seed=1):
    return build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                           final_conv_filters=4, init_seed=seed))


class TestRmsProp:
    def test_zero_gradient_leaves_params_unchanged(self):
        model = tiny_model()
        before = {n: v.copy() for n, _, _, v in model.named_params()}
        RmsProp().step(model)
        for n, _, _, v in model.named_params():
            np.testing.assert_array_equal(v, before[n])

    def test_first_step_magnitude(self):
        model = tiny_model()
        layer = model.layers[-1]  # head.dense
        layer.grads["b"][...] = 1.0
        before = layer.params["b"].copy()
        RmsProp(RmsPropConfig(learning_rate=0.001)).step(model)
        delta = layer.params["b"] - before
        expected = -0.001 / (math.sqrt(0.1) + 1e-7)
        np.testing.assert_allclose(delta, expected, rtol=1e-12)
        assert abs(expected - (-3.1623e-3)) < 1e-6
        # gradients zeroed afterwards
        np.testing.assert_array_equal(layer.grads["b"], 0.0)

    def test_in_place_update_matches_formula_bitwise(self):
        model = tiny_model()
        cfg = RmsPropConfig(learning_rate=0.01)
        opt = RmsProp(cfg)
        params = {n: v.copy() for n, _, _, v in model.named_params()}
        acc = {n: np.zeros_like(v) for n, v in params.items()}
        rng = Rng(12)
        for _ in range(3):
            for n, layer, pname, value in model.named_params():
                g = rng.normal(value.shape)
                layer.grads[pname][...] = g
                acc[n] = RHO * acc[n] + (1.0 - RHO) * g * g
                params[n] = params[n] - cfg.learning_rate * g / (np.sqrt(acc[n]) + EPSILON)
            opt.step(model)
        for n, layer, pname, value in model.named_params():
            np.testing.assert_array_equal(value, params[n])
            np.testing.assert_array_equal(layer.grads[pname], 0.0)

    def test_nan_gradient_names_the_tensor(self):
        model = tiny_model()
        model.layers[0].grads["filters"][0, 0, 1] = np.nan
        with pytest.raises(FloatingPointError, match="level0.conv.filters"):
            RmsProp().step(model)

    def test_monotone_descent_on_quadratic(self):
        # 1-D quadratic f(w) = w^2 handled with the raw update rule
        w, acc = 3.0, 0.0
        cfg = RmsPropConfig(learning_rate=0.01)
        losses = []
        for _ in range(20):
            losses.append(w * w)
            g = 2 * w
            acc = RHO * acc + (1 - RHO) * g * g
            w -= cfg.learning_rate * g / (math.sqrt(acc) + EPSILON)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RmsPropConfig(learning_rate=0.0)


@pytest.fixture(scope="module")
def blobs():
    table = synth_dataset(2, 64, 16, 8.0, 42)
    mean, std = fit_standardization(table.features, np.arange(64))
    table.features = apply_standardization(table.features, mean, std)
    return table


class TestTrainEpoch:
    def test_batch_size_exceeds_dataset(self, blobs):
        model = tiny_model()
        with pytest.raises(ValueError):
            train_epoch(model, blobs.features, blobs.labels,
                        TrainConfig(batch_size=100), RmsProp())

    def test_determinism_one_epoch(self, blobs):
        states = []
        for _ in range(2):
            model = tiny_model(seed=3)
            train_epoch(model, blobs.features, blobs.labels,
                        TrainConfig(batch_size=16, seed=5), RmsProp())
            states.append({n: v.copy() for n, _, _, v in model.named_params()})
        for n in states[0]:
            np.testing.assert_array_equal(states[0][n], states[1][n])

    def test_loss_decreases_over_training(self, blobs):
        model = tiny_model(seed=7)
        tc = TrainConfig(epochs=50, batch_size=32, seed=0)
        history = fit(model, blobs.features, blobs.labels, tc)
        assert history[-1][1] < history[0][1]

    def test_overfit_smoke_within_200_epochs(self, blobs):
        model = tiny_model(seed=1)
        opt = RmsProp()
        tc = TrainConfig(batch_size=32, seed=0)
        for epoch in range(200):
            _, acc = train_epoch(model, blobs.features, blobs.labels, tc, opt, epoch)
            if acc == 1.0:
                break
        assert acc == 1.0

    def test_onehot_validation(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), 3)
