import tracemalloc

import numpy as np
import pytest

from golden_infer import infer_model
from infer_blocks import single_pass
from lunet import LuNetSpec, build, layers
from lunet.model import KERNEL_SIZE, POOL_SIZE
from lunet.tensor import Rng, softmax


def walk_shapes(spec):
    """Independent shape-propagation oracle over the documented stack:
    (layer name, output shape without the batch axis) for every layer."""
    length, ch = spec.input_features, 1
    shapes = []
    for k, w in enumerate(spec.levels):
        length = length - KERNEL_SIZE + 1  # conv
        shapes += [(f"level{k}.conv", (length, w)), (f"level{k}.relu", (length, w))]
        length = length // POOL_SIZE  # pool
        shapes += [(f"level{k}.{kind}", (length, w)) for kind in ("pool", "bn", "lstm")]
        ch = w  # lstm cells
    shapes.append(("head.dropout", (length, ch)))
    length = length - KERNEL_SIZE + 1  # head conv
    f = spec.final_conv_filters
    return shapes + [("head.conv", (length, f)), ("head.relu", (length, f)),
                     ("head.gap", (f,)), ("head.dense", (spec.num_classes,))]


def run_layers(model, x):
    """Run the built layers one at a time on x; returns the final output and
    (layer name, output shape without the batch axis) for every layer."""
    out, shapes = x[:, :, None], []
    for layer in model.layers:
        out = layer.forward(out, mode=model.mode)
        shapes.append((layer.name, out.shape[1:]))
    return out, shapes


class TestBuild:
    def test_default_spec_on_nsl_kdd_width(self):
        spec = LuNetSpec(input_features=122, num_classes=2)
        model = build(spec)
        x = Rng(1).normal((3, 122))
        model.set_mode("infer")
        assert model.forward(x).shape == (3, 2)

    def test_shape_trace_matches_oracle(self):
        spec = LuNetSpec(input_features=122, num_classes=2)
        _, shapes = run_layers(build(spec), Rng(1).normal((2, 122)))
        assert shapes == walk_shapes(spec)

    def test_length_exhausted_names_level(self):
        with pytest.raises(ValueError, match="level"):
            build(LuNetSpec(input_features=4, num_classes=2))

    def test_one_level_spec(self):
        spec = LuNetSpec(input_features=16, num_classes=5, levels=(8,), final_conv_filters=8)
        model = build(spec)
        model.set_mode("infer")
        assert model.forward(Rng(2).normal((2, 16))).shape == (2, 5)

    def test_lstm_length_equals_post_pool_length(self):
        # each level's LSTM sees exactly the post-pool conv output length
        spec = LuNetSpec(input_features=64, num_classes=2, levels=(4, 8))
        _, shapes = run_layers(build(spec), Rng(2).normal((3, 64)))
        assert shapes == walk_shapes(spec)
        trace = dict(shapes)
        for k in range(len(spec.levels)):
            assert trace[f"level{k}.lstm"][0] == trace[f"level{k}.pool"][0]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LuNetSpec(input_features=16, num_classes=1)
        with pytest.raises(ValueError):
            LuNetSpec(input_features=16, num_classes=2, levels=())

    def test_spec_mapping_round_trip(self):
        spec = LuNetSpec(input_features=31, num_classes=7, levels=(3, 5),
                         final_conv_filters=9, init_seed=17)
        assert LuNetSpec.from_mapping(spec.to_mapping()) == spec
        assert list(spec.to_mapping()) == ["input_features", "num_classes", "levels",
                                           "final_conv_filters", "init_seed"]


class TestForward:
    @pytest.fixture()
    def model(self):
        m = build(LuNetSpec(input_features=20, num_classes=3, levels=(4,),
                            final_conv_filters=4, init_seed=5))
        m.set_mode("infer")
        return m

    def test_rows_sum_to_one(self, model):
        probs = model.forward(Rng(3).normal((8, 20)))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_batch_independence_in_infer_mode(self, model):
        row = Rng(4).normal((1, 20))
        x = np.vstack([row, row])
        probs = model.forward(x)
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_repeated_calls_bitwise_identical(self, model):
        x = Rng(5).normal((4, 20))
        np.testing.assert_array_equal(model.forward(x), model.forward(x))

    def test_paper_width_probs_do_not_depend_on_chunking(self):
        # forwards of 1, 37 and 64 rows give the bits of one pass over all
        # 256 rows
        model = build(LuNetSpec(input_features=122, num_classes=2, init_seed=1))
        for _, _, pname, value in model.named_params():
            if pname in ("b", "bias"):
                value[...] = Rng(value.size).normal(value.shape)
        model.set_mode("infer")
        x = Rng(12).normal((256, 122))
        want = single_pass(model, x)
        for chunk in (1, 37, 64):
            chunks = np.vstack([model.forward(x[i:i + chunk]) for i in range(0, 256, chunk)])
            np.testing.assert_array_equal(want, chunks, err_msg=f"chunks of {chunk} rows")

    @pytest.mark.parametrize("block_bytes", [1, layers.BLOCK_BYTES])
    @pytest.mark.parametrize("chunk", [1, 37, 64, 256])
    def test_paper_width_probs_do_not_depend_on_time_blocks(self, monkeypatch, block_bytes,
                                                            chunk):
        # an infer-mode LSTM splits its input product into time blocks sized
        # by the batch; at every chunk size the probabilities are the bits of
        # one whole-sequence block
        model = build(LuNetSpec(input_features=122, num_classes=2, init_seed=1))
        for _, _, pname, value in model.named_params():
            if pname in ("b", "bias"):
                value[...] = Rng(value.size).normal(value.shape)
        model.set_mode("infer")
        x = Rng(12).normal((256, 122))

        def chunked():
            return np.vstack([model.forward(x[i:i + chunk]) for i in range(0, 256, chunk)])

        monkeypatch.setattr(layers, "BLOCK_BYTES", block_bytes)
        blocks = chunked()
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1 << 62)
        np.testing.assert_array_equal(blocks, chunked())

    @pytest.mark.parametrize("classes", [2, 5])
    @pytest.mark.parametrize("batch", [1, 37, 65, 256])
    def test_infer_forward_leaves_the_input_unchanged(self, classes, batch):
        # infer-mode ReLU and BatchNorm write into their inputs, which must
        # be the fresh outputs of the layers before them, never the caller's,
        # in every block of rows (65: a one-row last block, or 33 and 32)
        x = Rng(batch).normal((batch, 122))
        before = x.tobytes()
        infer_model(classes).forward(x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("classes", [2, 5])
    @pytest.mark.parametrize("batch", [2, 37, 65])
    def test_train_forward_leaves_the_input_unchanged(self, classes, batch):
        # train-mode ReLU and BatchNorm write into their inputs too
        x = Rng(batch).normal((batch, 122))
        before = x.tobytes()
        model = infer_model(classes)
        model.set_mode("train")
        model.forward(x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("queued", [False, True], ids=["inline", "queued"])
    def test_paper_width_infer_peak_stays_near_the_largest_activation(
            self, monkeypatch, queued):
        # one pass of the layers over 256 rows (forward would run them in
        # 64-row blocks): its largest activation is the level-0 conv output,
        # [256, 120, 64] float64; the max pool reads it while writing its
        # half-sized output, so no such pass can peak below 1.5x of it
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", queued)
        model, x = infer_model(2), Rng(12).normal((256, 122))
        conv0_out = 256 * 120 * 64 * 8
        tracemalloc.start()
        try:
            single_pass(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * conv0_out, f"peak {peak / conv0_out:.3f}x the level-0 conv output"

    def test_wrong_feature_count(self, model):
        with pytest.raises(ValueError):
            model.forward(Rng(6).normal((2, 19)))

    def test_debug_shape_assertions(self, model):
        # every layer's output shape follows the oracle, and running the
        # layers one at a time, then softmax, is exactly what forward does
        x = Rng(7).normal((2, 20))
        out, shapes = run_layers(model, x)
        assert shapes == walk_shapes(model.spec)
        np.testing.assert_array_equal(softmax(out), model.forward(x))


class TestPredictClass:
    def test_argmax_and_tie_break(self):
        model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                                final_conv_filters=4))
        # tie-break is a property of the argmax convention
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0
        assert int(np.argmax(np.array([0.9, 0.1]))) == 0
        row = np.zeros(10)
        row[7] = 0.3
        assert int(np.argmax(row)) == 7
        preds = model.predict_class(Rng(8).normal((5, 16)))
        assert preds.shape == (5,)
        assert set(preds) <= {0, 1}

    def test_predict_runs_in_infer_mode(self):
        model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                                final_conv_filters=4))
        model.set_mode("train")
        x = Rng(9).normal((4, 16))
        np.testing.assert_array_equal(model.predict_class(x), model.predict_class(x))
        assert model.mode == "train"  # restored

    def test_infer_keeps_no_backward_state(self):
        model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                                final_conv_filters=4))
        x = Rng(10).normal((4, 16))
        model.forward(x)  # train mode: every layer keeps its cache
        assert all(layer._cache is not None for layer in model.layers)
        model.predict_class(x)
        assert all(layer._cache is None for layer in model.layers)

    def test_backward_after_infer_forward_raises(self):
        model = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,),
                                final_conv_filters=4))
        model.set_mode("infer")
        probs = model.forward(Rng(11).normal((4, 16)))
        with pytest.raises(RuntimeError, match="without a prior forward"):
            model.backward(probs / 4)
