import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunet import layers
from lunet.layers import (LSTM, BatchNorm, Conv1D, Dense, Dropout,
                          GlobalAvgPool, MaxPool1D, ReLU)
from lunet.tensor import Rng, sigmoid, softmax


def seq(values):
    """1-channel [1, len, 1] input from a flat list."""
    return np.asarray(values, dtype=np.float64).reshape(1, -1, 1)


def make_conv(c_in, c_out, m, filters=None, bias=None, seed=0):
    conv = Conv1D(c_in, c_out, m, Rng(seed))
    if filters is not None:
        conv.params["filters"][...] = filters
    if bias is not None:
        conv.params["bias"][...] = bias
    return conv


def conv_oracle(x, filters, bias):
    """Direct-summation valid cross-correlation."""
    b, length, c_in = x.shape
    c_out, _, m = filters.shape
    out = np.zeros((b, length - m + 1, c_out))
    for bi in range(b):
        for i in range(length - m + 1):
            for o in range(c_out):
                acc = bias[o]
                for c in range(c_in):
                    for j in range(m):
                        acc += x[bi, i + j, c] * filters[o, c, j]
                out[bi, i, o] = acc
    return out


def conv_per_tap(conv, x, upstream):
    """The per-tap formulas on strided filter views: forward output, then
    (dx, d filters, d bias) from zeroed gradients."""
    f, l_out = conv.params["filters"], x.shape[1] - conv.m + 1
    out = np.broadcast_to(conv.params["bias"], (x.shape[0], l_out, conv.c_out)).copy()
    dx, df = np.zeros_like(x), np.zeros_like(f)
    for j in range(conv.m):
        out += x[:, j:j + l_out, :] @ f[:, :, j].T
        df[:, :, j] += np.tensordot(upstream, x[:, j:j + l_out, :], axes=([0, 1], [0, 1]))
        dx[:, j:j + l_out, :] += upstream @ f[:, :, j]
    return out, dx, df, upstream.sum(axis=(0, 1))


# (length, c_in, c_out) of the four convolutions of the paper model on 122 inputs
PAPER_CONV_SHAPES = [(122, 1, 64), (60, 64, 128), (29, 128, 256), (13, 256, 256)]


class TestConv1D:
    def test_shifted_identity_kernel(self):
        conv = make_conv(1, 1, 2, filters=np.array([[[1.0, 0.0]]]), bias=[0.0])
        out = conv.forward(seq([1, 2, 3, 4]))
        np.testing.assert_array_equal(out.ravel(), [1, 2, 3])

    def test_sum_kernel(self):
        conv = make_conv(1, 1, 2, filters=np.array([[[1.0, 1.0]]]), bias=[0.0])
        out = conv.forward(seq([1, 2, 3, 4]))
        np.testing.assert_array_equal(out.ravel(), [3, 5, 7])

    def test_too_short_input(self):
        conv = make_conv(1, 1, 3)
        with pytest.raises(ValueError):
            conv.forward(seq([1, 2]))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_against_direct_summation_oracle(self, m):
        rng = Rng(m)
        conv = Conv1D(3, 4, m, Rng(m + 10))
        x = rng.normal((2, 16, 3))
        expected = conv_oracle(x, conv.params["filters"], conv.params["bias"])
        assert np.max(np.abs(conv.forward(x) - expected)) < 1e-12

    @pytest.mark.parametrize("batch", [2, 32, 256])
    @pytest.mark.parametrize("length,c_in,c_out", PAPER_CONV_SHAPES)
    def test_contiguous_taps_match_per_tap_formulas_bitwise(self, length, c_in, c_out, batch):
        rng = Rng(length + batch)
        conv = Conv1D(c_in, c_out, 3, rng)
        conv.params["bias"][...] = rng.normal((c_out,))
        x = rng.normal((batch, length, c_in))
        upstream = rng.normal((batch, length - 2, c_out))
        out, dx, df, db = conv_per_tap(conv, x, upstream)
        np.testing.assert_array_equal(conv.forward(x), out)
        np.testing.assert_array_equal(conv.backward(upstream), dx)
        np.testing.assert_array_equal(conv.grads["filters"], df)
        np.testing.assert_array_equal(conv.grads["bias"], db)

    @pytest.mark.parametrize("queued", [False, True], ids=["inline", "queued"])
    @pytest.mark.parametrize("length,c_in,c_out", PAPER_CONV_SHAPES[:2])
    def test_forward_peak_is_its_output_and_a_tap_block(self, monkeypatch, queued,
                                                        length, c_in, c_out):
        # each thread adds its taps through one buffer of BLOCK_BYTES / 2,
        # not an output-sized temporary per tap. Levels 0 and 1 make the
        # largest outputs, 3.9 and 3.8 MB at batch 64; deeper convs keep a
        # contiguous copy of their taps (0.8 and 1.6 MB) beside smaller ones
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", queued)
        conv = Conv1D(c_in, c_out, 3, Rng(1))
        x = Rng(2).normal((64, length, c_in))
        out_bytes = 64 * (length - 2) * c_out * 8
        for mode in ("infer", "train"):
            tracemalloc.start()
            try:
                conv.forward(x, mode=mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * out_bytes, f"{mode}: peak {peak / out_bytes:.3f}x its output"


class TestMaxPool1D:
    def test_basic(self):
        out = MaxPool1D(2).forward(seq([1, 3, 2, 5]))
        np.testing.assert_array_equal(out.ravel(), [3, 5])

    def test_identity_pooling(self):
        out = MaxPool1D(1).forward(seq([7]))
        np.testing.assert_array_equal(out.ravel(), [7])

    def test_trailing_remainder_dropped(self):
        out = MaxPool1D(2).forward(seq([1, 2, 3]))
        np.testing.assert_array_equal(out.ravel(), [2])

    def test_too_short(self):
        with pytest.raises(ValueError):
            MaxPool1D(3).forward(seq([1, 2]))

    def test_against_window_enumeration_oracle(self):
        rng = Rng(4)
        for pool in (2, 3):
            x = rng.normal((2, 11, 3))
            out = MaxPool1D(pool).forward(x)
            n = 11 // pool
            for b in range(2):
                for w in range(n):
                    for c in range(3):
                        assert out[b, w, c] == max(
                            x[b, w * pool + j, c] for j in range(pool))

    @pytest.mark.parametrize("pool", [2, 3])
    def test_max_equals_first_argmax_pick_bitwise(self, pool):
        # few distinct values make ties common; NaN must win its window
        rng = Rng(pool)
        x = np.floor(rng.normal((4, 17, 5)) * 2)
        x[rng.uniform((4, 17, 5)) < 0.1] = np.nan
        n = 17 // pool
        xw = x[:, :n * pool].reshape(4, n, pool, 5)
        idx = np.argmax(xw, axis=2)
        want = np.take_along_axis(xw, idx[:, :, None, :], axis=2)[:, :, 0, :]
        got = MaxPool1D(pool).forward(x)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("pool", [2, 3])
    def test_backward_from_one_byte_per_window(self, pool):
        # the train-mode cache is each window's first argmax as a uint8, as
        # np.argmax gives it: the first NaN in a window that holds one, the
        # first of tied maxima (+0 and -0 too); backward routes every
        # upstream value to that element
        rng = Rng(pool + 10)
        x = np.floor(rng.normal((4, 17, 5)) * 2)
        x[rng.uniform((4, 17, 5)) < 0.2] = -0.0
        x[rng.uniform((4, 17, 5)) < 0.1] = np.nan
        layer = MaxPool1D(pool)
        layer.forward(x)
        n = 17 // pool
        assert layer._cache[1].dtype == np.uint8 and layer._cache[1].shape == (4, n, 5)
        up = rng.normal((4, n, 5))
        first = np.argmax(x[:, :n * pool].reshape(4, n, pool, 5), axis=2)
        np.testing.assert_array_equal(layer._cache[1], first)
        want = np.zeros_like(x)
        for b, w, c in np.ndindex(4, n, 5):
            want[b, w * pool + first[b, w, c], c] = up[b, w, c]
        np.testing.assert_array_equal(layer.backward(up), want)

    def test_tie_gradient_goes_to_first(self):
        pool = MaxPool1D(2)
        x = seq([4, 4])
        pool.forward(x)
        dx = pool.backward(np.ones((1, 1, 1)))
        np.testing.assert_array_equal(dx.ravel(), [1, 0])


class TestBatchNorm:
    def test_normalizes_a_column(self):
        bn = BatchNorm(1)
        out = bn.forward(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column(self):
        bn = BatchNorm(1)
        out = bn.forward(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_allclose(out.ravel(), [0, 0, 0], atol=1e-6)

    def test_affine_output(self):
        bn = BatchNorm(1)
        bn.params["gamma"][...] = 2.0
        bn.params["beta"][...] = 1.0
        out = bn.forward(np.array([[4.0], [4.0]]))  # xhat == 0
        np.testing.assert_allclose(out.ravel(), [1.0, 1.0], atol=1e-6)

    def test_batch_too_small_in_train_mode(self):
        with pytest.raises(ValueError):
            BatchNorm(2).forward(np.array([[1.0, 2.0]]), mode="train")

    def test_train_mode_moments(self):
        bn = BatchNorm(5)
        x = Rng(3).normal((32, 5), 2.0, 3.0)
        out = bn.forward(x)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-3

    def test_infer_uses_running_stats(self):
        bn = BatchNorm(2)
        x = Rng(5).normal((16, 2), 1.0, 2.0)
        for _ in range(800):  # each forward normalizes its input in place
            bn.forward(x.copy())
        infer_out = bn.forward(x.copy(), mode="infer")
        train_out = bn.forward(x.copy(), mode="train")
        np.testing.assert_allclose(infer_out, train_out, atol=1e-2)
        # single row is fine in infer mode
        bn.forward(x[:1], mode="infer")


def lstm_step_oracle(params, x_t, h_prev, s_prev):
    """Gate-by-gate evaluation of the four-gate cell equations, reading each
    gate's column block p|g|f|q out of the stacked U, W and b."""
    cells = h_prev.shape[1]

    def net(k):
        cols = slice(k * cells, (k + 1) * cells)
        return (params["b"][cols] + x_t @ params["U"][:, cols]
                + h_prev @ params["W"][:, cols])

    s_t = sigmoid(net(2)) * s_prev + sigmoid(net(0)) * np.tanh(net(1))
    h_t = np.tanh(s_t) * sigmoid(net(3))
    return h_t, s_t


def lstm_oracle(params, x):
    """Oracle cell updates chained over x [batch, length, in] from zero state."""
    cells = params["W"].shape[0]
    h = np.zeros((x.shape[0], cells))
    s = np.zeros_like(h)
    out = []
    for t in range(x.shape[1]):
        h, s = lstm_step_oracle(params, x[:, t, :], h, s)
        out.append(h)
    return np.stack(out, axis=1)


def lstm_batch_major(params, x, upstream):
    """Reference LSTM forward and backward over a batch-major [b, L, .] cache,
    with sigmoid over all four gate blocks and then tanh over the g block.
    Returns the output and the gradients dU, dW, db and dx."""
    b, length, in_dim = x.shape
    c = params["W"].shape[0]
    gates = (params["b"] + x.reshape(-1, in_dim) @ params["U"]).reshape(b, length, 4 * c)
    hs = np.zeros((b, length + 1, c))
    ss = np.zeros((b, length + 1, c))
    for t in range(length):
        z = gates[:, t]
        a = z + hs[:, t] @ params["W"]
        z[...] = sigmoid(a)
        z[:, c:2 * c] = np.tanh(a[:, c:2 * c])
        i_g, g_g, f_g, q_g = z[:, :c], z[:, c:2 * c], z[:, 2 * c:3 * c], z[:, 3 * c:]
        ss[:, t + 1] = f_g * ss[:, t] + i_g * g_g
        hs[:, t + 1] = np.tanh(ss[:, t + 1]) * q_g
    da = np.empty_like(gates)
    dh_next = np.zeros((b, c))
    ds_next = np.zeros((b, c))
    tanh_s = np.tanh(ss[:, 1:])
    for t in reversed(range(length)):
        z, dz = gates[:, t], da[:, t]
        i_g, g_g, f_g, q_g = z[:, :c], z[:, c:2 * c], z[:, 2 * c:3 * c], z[:, 3 * c:]
        da_p, da_g, da_f, da_q = dz[:, :c], dz[:, c:2 * c], dz[:, 2 * c:3 * c], dz[:, 3 * c:]
        ts = tanh_s[:, t]
        dh = upstream[:, t] + dh_next
        da_q[...] = dh * ts * q_g * (1 - q_g)
        ds = dh * q_g * (1 - ts * ts) + ds_next
        da_f[...] = ds * ss[:, t] * f_g * (1 - f_g)
        da_p[...] = ds * g_g * i_g * (1 - i_g)
        da_g[...] = ds * i_g * (1 - g_g * g_g)
        ds_next = ds * f_g
        dh_next = dz @ params["W"].T
    da = da.reshape(-1, 4 * c)
    return (hs[:, 1:], x.reshape(-1, in_dim).T @ da, hs[:, :-1].reshape(-1, c).T @ da,
            da.sum(axis=0), (da @ params["U"].T).reshape(x.shape))


class TestLstm:
    def zero_lstm(self, in_dim=2, cells=3):
        lstm = LSTM(in_dim, cells, Rng(0))
        for p in lstm.params.values():
            p[...] = 0.0
        return lstm

    def test_weights_are_gate_draws_stacked(self):
        # U_p, W_p, U_g, W_g, ... drawn in turn, stacked as column blocks p|g|f|q
        lstm = LSTM(3, 4, Rng(5))
        rng = Rng(5)
        draws = [(rng.normal((3, 4), 0.0, 0.1), rng.normal((4, 4), 0.0, 0.1))
                 for _ in range(4)]
        np.testing.assert_array_equal(lstm.params["U"], np.hstack([u for u, _ in draws]))
        np.testing.assert_array_equal(lstm.params["W"], np.hstack([w for _, w in draws]))
        np.testing.assert_array_equal(lstm.params["b"], np.zeros(16))

    def test_zero_weights_zero_state(self):
        lstm = self.zero_lstm()
        out = lstm.forward(np.ones((1, 2, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2, 3)))

    def test_zero_weights_unit_state(self):
        # tanh(g) saturates at 1 and the sigmoid gates sit at 0.5, so the
        # state goes 0 -> 0.5 -> 0.75
        lstm = self.zero_lstm()
        lstm.params["b"][3:6] = 40.0
        out = lstm.forward(np.ones((1, 2, 2)))
        np.testing.assert_allclose(out[0, 0], np.tanh(0.5) * 0.5)
        np.testing.assert_allclose(out[0, 1], np.tanh(0.75) * 0.5)
        assert abs(out[0, 0, 0] - 0.23106) < 1e-5

    def test_input_width_mismatch(self):
        lstm = LSTM(4, 3, Rng(1))
        with pytest.raises(ValueError):
            lstm.forward(np.zeros((1, 2, 3)))

    def test_length_one_equals_step(self):
        lstm = LSTM(3, 4, Rng(2))
        x = Rng(3).normal((2, 1, 3))
        h, _ = lstm_step_oracle(lstm.params, x[:, 0, :], np.zeros((2, 4)), np.zeros((2, 4)))
        assert np.max(np.abs(lstm.forward(x)[:, 0, :] - h)) < 1e-12

    def test_zero_weights_zero_output(self):
        lstm = self.zero_lstm(3, 4)
        out = lstm.forward(Rng(4).normal((2, 5, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 5, 4)))

    def test_two_step_chaining_oracle(self):
        lstm = LSTM(3, 4, Rng(5))
        x = Rng(6).normal((2, 2, 3))
        h1, s1 = lstm_step_oracle(lstm.params, x[:, 0, :], np.zeros((2, 4)), np.zeros((2, 4)))
        h2, _ = lstm_step_oracle(lstm.params, x[:, 1, :], h1, s1)
        out = lstm.forward(x)
        assert np.max(np.abs(out[:, 0, :] - h1)) < 1e-12
        assert np.max(np.abs(out[:, 1, :] - h2)) < 1e-12

    def test_sequence_truncation_matches_iterated_steps(self):
        # every prefix of the sequence gives the outputs of that many oracle steps
        lstm = LSTM(2, 3, Rng(7))
        x = Rng(8).normal((3, 6, 2))
        want = lstm_oracle(lstm.params, x)
        for t in range(1, 7):
            assert np.max(np.abs(lstm.forward(x[:, :t, :]) - want[:, :t, :])) < 1e-12

    def test_step_matches_scalar_oracle(self):
        for trial in range(20):
            lstm = LSTM(3, 2, Rng(trial))
            lstm.params["b"][...] = Rng(200 + trial).normal((8,))
            x = Rng(100 + trial).normal((2, 3, 3))
            assert np.max(np.abs(lstm.forward(x) - lstm_oracle(lstm.params, x))) < 1e-12

    # (cells = input width, steps) of the three LSTMs of the paper model on 122
    # inputs. Infer mode makes its input products in time blocks of 1 MiB:
    # at batch 256 one or two steps each, at batch 100 five, two (the last
    # of 29 steps alone) and one.
    @pytest.mark.parametrize("cells,length", [(64, 60), (128, 29), (256, 13)])
    @pytest.mark.parametrize("batch", [2, 32, 64, 100, 256])
    def test_time_major_matches_batch_major_reference_bitwise(self, cells, length, batch):
        lstm = LSTM(cells, cells, Rng(cells))
        lstm.params["b"][...] = Rng(cells + 1).normal((4 * cells,))
        x = Rng(batch).normal((batch, length, cells))
        upstream = Rng(batch + 1).normal((batch, length, cells))
        out, d_u, d_w, d_b, dx = lstm_batch_major(lstm.params, x, upstream)
        np.testing.assert_array_equal(lstm.forward(x, mode="infer"), out)
        np.testing.assert_array_equal(lstm.forward(x), out)
        np.testing.assert_array_equal(lstm.backward(upstream), dx)
        np.testing.assert_array_equal(lstm.grads["U"], d_u)
        np.testing.assert_array_equal(lstm.grads["W"], d_w)
        np.testing.assert_array_equal(lstm.grads["b"], d_b)

    def test_infer_holds_a_time_block_of_gates_not_the_sequence(self):
        # one [60, 256, 256] float64 buffer of every step's gates: 31,457,280 bytes
        all_gates = 60 * 256 * 4 * 64 * 8
        lstm = LSTM(64, 64, Rng(0))
        x = Rng(1).normal((256, 60, 64))
        peaks = {}
        for mode in ("infer", "train"):
            tracemalloc.start()
            try:
                lstm.forward(x, mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["infer"] < all_gates <= peaks["train"]
        assert lstm._cache[1].nbytes == all_gates

    def test_inline_infer_holds_one_block_of_gates(self, monkeypatch):
        # infer makes its products here, with or without the worker: each
        # block of timesteps gets its input products just before its steps,
        # so one gate block of BLOCK_BYTES (2 steps of [256, 256]) is live.
        # Beside the output, a step holds h @ W and sigmoid's exp, [256, 256]
        # each, and three [256, 64] rows: about 2.0 x BLOCK_BYTES in all; a
        # second gate block would add 1.0
        lstm = LSTM(64, 64, Rng(0))
        x = Rng(1).normal((256, 60, 64))
        for queue in (False, True):
            monkeypatch.setattr(layers, "QUEUE_PRODUCTS", queue)
            tracemalloc.start()
            try:
                out = lstm.forward(x, mode="infer")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = (peak - out.nbytes) / layers.BLOCK_BYTES
            assert extra <= 2.25, f"queue {queue}: output + {extra:.2f} x BLOCK_BYTES"

    def test_train_holds_gates_and_about_twice_its_output(self, monkeypatch):
        # train keeps every step's gates, its output and every cell state
        # (one output's bytes); h(t) goes straight into the output, so any
        # other output-sized buffer would put the peak near 3x
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", False)
        all_gates, out_bytes = 60 * 256 * 4 * 64 * 8, 256 * 60 * 64 * 8
        lstm = LSTM(64, 64, Rng(0))
        x = Rng(1).normal((256, 60, 64))
        tracemalloc.start()
        try:
            lstm.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = (peak - all_gates) / out_bytes
        assert extra <= 2.5, f"peak is all gates plus {extra:.2f}x the output"


class TestDropout:
    def test_infer_identity(self):
        d = Dropout(0.5, Rng(1))
        x = Rng(2).normal((4, 5))
        out = d.forward(x, mode="infer")
        assert out is x

    def test_rate_zero_identity_in_train(self):
        d = Dropout(0.0, Rng(1))
        x = Rng(2).normal((4, 5))
        assert d.forward(x, mode="train") is x

    def test_rate_zero_backward_passes_upstream_through(self):
        d = Dropout(0.0, Rng(1))
        d.forward(Rng(2).normal((4, 5)))
        up = Rng(3).normal((4, 5))
        np.testing.assert_array_equal(d.backward(up), up)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0, Rng(1))

    def test_expectation_preserved(self):
        d = Dropout(0.5, Rng(3))
        out = d.forward(np.ones((100, 1000)), mode="train")
        assert abs(out.mean() - 1.0) < 0.02


class TestGlobalAvgPool:
    def test_mean_over_length(self):
        x = np.array([[[1.0, 3.0], [3.0, 5.0]]])
        np.testing.assert_array_equal(GlobalAvgPool().forward(x), [[2.0, 4.0]])

    def test_length_one_squeeze(self):
        x = Rng(1).normal((3, 1, 4))
        np.testing.assert_array_equal(GlobalAvgPool().forward(x), x[:, 0, :])

    def test_against_summation_oracle(self):
        x = Rng(2).normal((2, 9, 5))
        out = GlobalAvgPool().forward(x)
        expected = np.zeros((2, 5))
        for b in range(2):
            for c in range(5):
                expected[b, c] = sum(x[b, i, c] for i in range(9)) / 9
        assert np.max(np.abs(out - expected)) < 1e-12


class TestDense:
    def test_identity_weights(self):
        d = Dense(3, 3, Rng(0))
        d.params["W"][...] = np.eye(3)
        d.params["b"][...] = 0.0
        x = Rng(1).normal((2, 3))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_dot_product(self):
        d = Dense(2, 1, Rng(0))
        d.params["W"][...] = [[1.0], [1.0]]
        d.params["b"][...] = [1.0]
        np.testing.assert_array_equal(d.forward(np.array([[1.0, 2.0]])), [[4.0]])

    def test_mismatch(self):
        with pytest.raises(ValueError):
            Dense(3, 2, Rng(0)).forward(np.zeros((2, 4)))


class TestBatchInvariance:
    # in infer mode a row of a batch gets the bits it gets alone, at the
    # paper's head and level-0 LSTM widths

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 37])
    def test_dense_row_alone_is_the_row_in_a_batch(self, rows):
        dense = Dense(256, 2, Rng(0))
        dense.params["b"][...] = Rng(1).normal((2,))
        x = Rng(2).normal((rows, 256))
        batch = dense.forward(x, mode="infer")
        for r in range(rows):
            assert dense.forward(x[r:r + 1], mode="infer").tobytes() == batch[r].tobytes(), r

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 37])
    def test_lstm_row_alone_is_the_row_in_a_batch(self, rows):
        lstm = LSTM(64, 64, Rng(0))
        lstm.params["b"][...] = Rng(1).normal((4 * 64,))
        x = Rng(2).normal((rows, 12, 64))
        batch = lstm.forward(x, mode="infer")
        for r in range(rows):
            assert lstm.forward(x[r:r + 1], mode="infer").tobytes() == batch[r].tobytes(), r


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    def test_rows_sum_to_one(self, row):
        out = softmax(np.asarray([row]))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        x = Rng(3).normal((4, 5))
        a = softmax(x)
        b = softmax(x + 17.0)
        assert np.max(np.abs(a - b)) < 1e-12


class TestBackwardContracts:
    def test_backward_without_forward(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, Rng(0)).backward(np.zeros((1, 2)))

    def test_dense_identity_passes_upstream_through(self):
        d = Dense(3, 3, Rng(0))
        d.params["W"][...] = np.eye(3)
        d.forward(Rng(1).normal((2, 3)))
        up = Rng(2).normal((2, 3))
        np.testing.assert_array_equal(d.backward(up), up)

    def test_relu_zero_gradient_at_negative_inputs(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0, -3.0]])
        r.forward(x)
        dx = r.backward(np.ones_like(x))
        np.testing.assert_array_equal(dx, [[0.0, 1.0, 0.0]])

    # every layer type with a backward, each with an input it accepts
    @pytest.mark.parametrize("make_layer,shape", [
        (lambda: Conv1D(3, 4, 3, Rng(0)), (4, 8, 3)),
        (ReLU, (4, 8, 3)),
        (lambda: MaxPool1D(2), (4, 8, 3)),
        (lambda: BatchNorm(3), (4, 8, 3)),
        (lambda: LSTM(3, 4, Rng(0)), (4, 8, 3)),
        (lambda: Dropout(0.5, Rng(0)), (4, 8, 3)),
        (lambda: Dropout(0.0, Rng(0)), (4, 8, 3)),
        (GlobalAvgPool, (4, 8, 3)),
        (lambda: Dense(3, 2, Rng(0)), (4, 3)),
    ], ids=["conv", "relu", "maxpool", "batchnorm", "lstm", "dropout", "dropout_rate0",
            "gap", "dense"])
    def test_infer_forward_keeps_no_backward_state(self, make_layer, shape):
        layer = make_layer()
        x = Rng(1).normal(shape)
        out = layer.forward(x)
        assert layer._cache is not None
        layer.forward(x, mode="infer")
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="without a prior forward"):
            layer.backward(np.ones_like(out))

    def test_upstream_shape_mismatch(self):
        d = Dense(3, 2, Rng(0))
        d.forward(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            d.backward(np.zeros((2, 3)))
