"""Differentiable layers: 1D convolution, max pooling, batch normalization,
LSTM, dropout, global average pooling, dense and softmax.

Every layer but softmax caches its forward activations and exposes
`backward(upstream)` which returns the gradient w.r.t. the layer input and
accumulates parameter gradients into `self.grads` (same keys and shapes as
`self.params`). Softmax has no backward of its own: training enters the stack
below it with the fused softmax + cross-entropy gradient.
"""

from __future__ import annotations

import numpy as np

from .tensor import Rng, sigmoid


class Layer:
    """Base: named parameter map plus a same-shaped gradient accumulator map."""

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__.lower()
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def add_param(self, pname: str, value: np.ndarray):
        if pname in self.params:
            raise ValueError(f"duplicate parameter name {pname!r} in {self.name}")
        self.params[pname] = value
        self.grads[pname] = np.zeros_like(value)

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Non-trainable tensors that belong in a checkpoint (e.g. BN stats)."""
        return {}

    def forward(self, x: np.ndarray, mode: str = "train") -> np.ndarray:
        raise NotImplementedError

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called without a prior forward")
        return self._cache


class Conv1D(Layer):
    """Valid (no-padding) 1D cross-correlation with bias.

    filters: [c_out, c_in, m]; input [batch, length, c_in];
    output [batch, length - m + 1, c_out].
    """

    def __init__(self, c_in: int, c_out: int, kernel_size: int, rng: Rng, name: str = "conv"):
        super().__init__(name)
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.c_in, self.c_out, self.m = c_in, c_out, kernel_size
        std = np.sqrt(2.0 / (c_in * kernel_size))
        self.add_param("filters", rng.normal((c_out, c_in, kernel_size), 0.0, std))
        self.add_param("bias", np.zeros(c_out))

    def forward(self, x, mode="train"):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ValueError(f"{self.name}: expected [batch, length, {self.c_in}], got {x.shape}")
        _, length, _ = x.shape
        if length < self.m:
            raise ValueError(f"{self.name}: input length {length} < kernel size {self.m}")
        l_out = length - self.m + 1
        f = self.params["filters"]
        out = np.broadcast_to(self.params["bias"], (x.shape[0], l_out, self.c_out)).copy()
        for j in range(self.m):
            out += x[:, j:j + l_out, :] @ f[:, :, j].T
        self._cache = (x, l_out)
        return out

    def backward(self, upstream):
        x, l_out = self._require_cache()
        if upstream.shape != (x.shape[0], l_out, self.c_out):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        f = self.params["filters"]
        dx = np.zeros_like(x)
        df = self.grads["filters"]
        for j in range(self.m):
            xs = x[:, j:j + l_out, :]
            df[:, :, j] += np.tensordot(upstream, xs, axes=([0, 1], [0, 1]))
            dx[:, j:j + l_out, :] += upstream @ f[:, :, j]
        self.grads["bias"] += upstream.sum(axis=(0, 1))
        return dx


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        self._cache = x > 0
        return np.maximum(0.0, x)

    def backward(self, upstream):
        mask = self._require_cache()
        # subgradient at 0 is 0
        return upstream * mask


class MaxPool1D(Layer):
    """Non-overlapping max pooling over the length axis; remainder dropped.

    Backward routes the gradient to the first maximal element per window.
    """

    def __init__(self, pool: int, name: str = "maxpool"):
        super().__init__(name)
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.pool = pool

    def forward(self, x, mode="train"):
        if x.ndim != 3:
            raise ValueError(f"{self.name}: expected rank-3 input, got {x.shape}")
        b, length, c = x.shape
        if length < self.pool:
            raise ValueError(f"{self.name}: length {length} < pool size {self.pool}")
        n = length // self.pool
        xw = x[:, :n * self.pool, :].reshape(b, n, self.pool, c)
        idx = np.argmax(xw, axis=2)  # first occurrence on ties
        out = np.take_along_axis(xw, idx[:, :, None, :], axis=2)[:, :, 0, :]
        self._cache = (x.shape, idx, n)
        return out

    def backward(self, upstream):
        shape, idx, n = self._require_cache()
        b, length, c = shape
        if upstream.shape != (b, n, c):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        dx = np.zeros(shape)
        dxw = dx[:, :n * self.pool, :].reshape(b, n, self.pool, c)
        np.put_along_axis(dxw, idx[:, :, None, :], upstream[:, :, None, :], axis=2)
        return dx


class BatchNorm(Layer):
    """Per-feature batch normalization over the trailing axis.

    Accepts [batch, features] or [batch, length, features]; statistics reduce
    over every axis but the last. Running statistics follow
    running <- momentum * running + (1 - momentum) * batch_stat.
    """

    def __init__(self, features: int, momentum: float = 0.99, epsilon: float = 1e-5,
                 name: str = "bn"):
        super().__init__(name)
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0,1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        self.features = features
        self.momentum = momentum
        self.epsilon = epsilon
        self.add_param("gamma", np.ones(features))
        self.add_param("beta", np.zeros(features))
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)

    def state_tensors(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, mode="train"):
        if x.shape[-1] != self.features:
            raise ValueError(f"{self.name}: expected {self.features} features, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        if mode == "train":
            if x.shape[0] < 2:
                raise ValueError(f"{self.name}: train mode needs batch >= 2, got {x.shape[0]}")
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)  # population variance
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat = (x - mu) * inv_std
        n = int(np.prod([x.shape[a] for a in axes]))
        self._cache = (xhat, inv_std, n, axes, mode)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, upstream):
        xhat, inv_std, n, axes, mode = self._require_cache()
        if upstream.shape != xhat.shape:
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self.grads["gamma"] += (upstream * xhat).sum(axis=axes)
        self.grads["beta"] += upstream.sum(axis=axes)
        dxhat = upstream * self.params["gamma"]
        if mode != "train":
            return dxhat * inv_std
        return (inv_std / n) * (n * dxhat - dxhat.sum(axis=axes)
                                - xhat * (dxhat * xhat).sum(axis=axes))


class LSTM(Layer):
    """LSTM over [batch, length, in] with four gate sub-nets p, g, f, q.

    Each sub-net computes b + x(t) @ U + h(t-1) @ W; the cell state update is
    s(t) = sigmoid(f) * s(t-1) + sigmoid(p) * tanh(g) and the output is
    h(t) = tanh(s(t)) * sigmoid(q). State starts at zeros for every sequence.
    """

    GATES = ("p", "g", "f", "q")

    def __init__(self, in_dim: int, cells: int, rng: Rng, return_sequences: bool = True,
                 name: str = "lstm"):
        super().__init__(name)
        self.in_dim, self.cells = in_dim, cells
        self.return_sequences = return_sequences
        for gate in self.GATES:
            self.add_param(f"U_{gate}", rng.normal((in_dim, cells), 0.0, 0.1))
            self.add_param(f"W_{gate}", rng.normal((cells, cells), 0.0, 0.1))
            self.add_param(f"b_{gate}", np.zeros(cells))

    def step(self, x_t: np.ndarray, h_prev: np.ndarray, s_prev: np.ndarray):
        """Single cell update; returns (h_t, s_t). Does not cache anything."""
        if x_t.ndim != 2 or x_t.shape[1] != self.in_dim:
            raise ValueError(f"{self.name}: expected [batch, {self.in_dim}] input, got {x_t.shape}")
        if h_prev.shape != s_prev.shape or h_prev.shape != (x_t.shape[0], self.cells):
            raise ValueError(f"{self.name}: state shape mismatch")
        p = self.params
        a = {g: p[f"b_{g}"] + x_t @ p[f"U_{g}"] + h_prev @ p[f"W_{g}"] for g in self.GATES}
        s_t = sigmoid(a["f"]) * s_prev + sigmoid(a["p"]) * np.tanh(a["g"])
        h_t = np.tanh(s_t) * sigmoid(a["q"])
        return h_t, s_t

    def forward(self, x, mode="train"):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ValueError(f"{self.name}: expected [batch, length, {self.in_dim}], got {x.shape}")
        b, length, _ = x.shape
        if length < 1:
            raise ValueError(f"{self.name}: empty sequence")
        p = self.params
        h = np.zeros((b, self.cells))
        s = np.zeros((b, self.cells))
        steps = []
        hs = np.empty((b, length, self.cells))
        for t in range(length):
            # same expression order as step(), so chaining is bitwise exact
            x_t = x[:, t, :]
            a = {g: p[f"b_{g}"] + x_t @ p[f"U_{g}"] + h @ p[f"W_{g}"]
                 for g in self.GATES}
            i_g = sigmoid(a["p"])
            g_g = np.tanh(a["g"])
            f_g = sigmoid(a["f"])
            q_g = sigmoid(a["q"])
            s_new = f_g * s + i_g * g_g
            ts = np.tanh(s_new)
            h_new = ts * q_g
            steps.append((h, s, i_g, g_g, f_g, q_g, ts))
            h, s = h_new, s_new
            hs[:, t, :] = h
        self._cache = (x, steps)
        return hs if self.return_sequences else hs[:, -1, :]

    def backward(self, upstream):
        x, steps = self._require_cache()
        b, length, _ = x.shape
        if self.return_sequences:
            if upstream.shape != (b, length, self.cells):
                raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        elif upstream.shape != (b, self.cells):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        p, g = self.params, self.grads
        dx = np.zeros_like(x)
        dh_next = np.zeros((b, self.cells))
        ds_next = np.zeros((b, self.cells))
        for t in reversed(range(length)):
            h_prev, s_prev, i_g, g_g, f_g, q_g, ts = steps[t]
            dh = dh_next.copy()
            if self.return_sequences:
                dh += upstream[:, t, :]
            elif t == length - 1:
                dh += upstream
            da_q = dh * ts * q_g * (1 - q_g)
            ds = dh * q_g * (1 - ts * ts) + ds_next
            da_f = ds * s_prev * f_g * (1 - f_g)
            da_p = ds * g_g * i_g * (1 - i_g)
            da_g = ds * i_g * (1 - g_g * g_g)
            ds_next = ds * f_g
            dh_next = np.zeros((b, self.cells))
            x_t = x[:, t, :]
            for gate, da in (("p", da_p), ("g", da_g), ("f", da_f), ("q", da_q)):
                g[f"U_{gate}"] += x_t.T @ da
                g[f"W_{gate}"] += h_prev.T @ da
                g[f"b_{gate}"] += da.sum(axis=0)
                dx[:, t, :] += da @ p[f"U_{gate}"].T
                dh_next += da @ p[f"W_{gate}"].T
        return dx


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with 1/(1-rate) survivor scaling;
    inference is the exact identity. `frozen` re-uses the last drawn mask
    (used by finite-difference gradient checks)."""

    def __init__(self, rate: float, rng: Rng, name: str = "dropout"):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate
        self.rng = rng
        self.frozen = False
        self._mask = None

    def forward(self, x, mode="train"):
        if mode != "train" or self.rate == 0.0:
            self._cache = ("identity", None)
            return x
        if self.frozen and self._mask is not None and self._mask.shape == x.shape:
            mask = self._mask
        else:
            mask = (self.rng.uniform(x.shape) >= self.rate) / (1.0 - self.rate)
            self._mask = mask
        self._cache = ("masked", mask)
        return x * mask

    def backward(self, upstream):
        kind, mask = self._require_cache()
        if kind == "identity":
            return upstream
        return upstream * mask


class GlobalAvgPool(Layer):
    """Mean over the length axis: [batch, length, c] -> [batch, c]."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        if x.ndim != 3:
            raise ValueError(f"{self.name}: expected rank-3 input, got {x.shape}")
        self._cache = x.shape
        return x.mean(axis=1)

    def backward(self, upstream):
        b, length, c = self._require_cache()
        if upstream.shape != (b, c):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        return np.broadcast_to(upstream[:, None, :] / length, (b, length, c)).copy()


class Dense(Layer):
    """Fully-connected x @ W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: Rng, name: str = "dense"):
        super().__init__(name)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.add_param("W", rng.normal((in_dim, out_dim), 0.0, np.sqrt(2.0 / in_dim)))
        self.add_param("b", np.zeros(out_dim))

    def forward(self, x, mode="train"):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name}: expected [batch, {self.in_dim}], got {x.shape}")
        self._cache = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, upstream):
        x = self._require_cache()
        if upstream.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self.grads["W"] += x.T @ upstream
        self.grads["b"] += upstream.sum(axis=0)
        return upstream @ self.params["W"].T


class Softmax(Layer):
    """Row-wise softmax with max-subtraction for overflow safety."""

    def __init__(self, name: str = "softmax"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        if x.ndim != 2 or x.shape[1] < 2:
            raise ValueError(f"{self.name}: expected [batch, classes>=2], got {x.shape}")
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)
