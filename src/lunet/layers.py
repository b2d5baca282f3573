"""Differentiable layers: 1D convolution, max pooling, batch normalization,
LSTM, dropout, global average pooling and dense.

Every layer exposes `backward(upstream)`, which returns the gradient w.r.t.
the layer input and accumulates parameter gradients into `self.grads` (same
keys and shapes as `self.params`). A train-mode forward keeps in `_cache` what
backward needs; no layer builds backward state in infer mode, so there
`_cache` is None and `backward` raises RuntimeError.

Where BLAS runs one thread and a second CPU is there (QUEUE_PRODUCTS),
`Conv1D.backward` and `LSTM.backward` compute the input gradient on the
calling thread and queue their weight-gradient products on one daemon thread
("lunet-grads", started by the first such backward in a process, and kept
off the CPU of the thread that queues them), so those products run beside
the backward pass of the layers below. Reading `grads` waits for the layer's
queued products and raises any exception they raised. Each product keeps
the shape, operands and accumulation order it has inline, so the gradients
are bitwise those of a single-threaded backward. A queued product reads the
layer's forward input and its `upstream`, so a caller must not write into
either until it has read `grads`.
"""

from __future__ import annotations

import os
import queue
import threading

import numpy as np

from .tensor import Rng, sigmoid

# Bytes of LSTM gate pre-activations an infer-mode forward makes per block of
# timesteps (at least one step). Measured at the paper widths (Xeon with 2 MiB
# of L2 per core, BLAS 1 thread): from 128 KiB to 2 MiB a 256-row forward's
# traced peak is flat at 36.7 MiB, set by the level-0 conv activations, and
# rows/s is flat within noise; at 4 MiB a 64-row forward's peak grows. 1 MiB
# keeps a block in L2 from its input product to its step.
INFER_BLOCK_BYTES = 1 << 20

BN_MOMENTUM = 0.99  # weight of the old value in a batch-norm running statistic


def _queue_pays() -> bool:
    """Whether queueing products on the worker can pay: BLAS runs one thread
    (OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is 1, read as BLAS reads them
    when it loads) and the process may run on a second CPU. BLAS threads of
    their own would contend with the worker for the cores: at 2 BLAS threads
    on 2 cores a paper-width step ran 9% slower with the worker."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (blas or "").strip() == "1" and (cpus or 1) >= 2


QUEUE_PRODUCTS = _queue_pays()


class _Job:
    """A queued weight-gradient computation and how it ended."""

    def __init__(self, fn):
        self.fn, self.error, self.done = fn, None, threading.Event()


class _GradWorker:
    """The daemon thread that runs queued jobs one at a time, in queue order.

    A job only reads arrays its layer no longer writes and adds into that
    layer's gradient buffers, which nothing else touches until `grads` has
    waited for it. It calls no layer, model or train function, so wrappers
    that time those from one thread never see this one."""

    def __init__(self):
        self.pid = os.getpid()
        self.jobs: queue.SimpleQueue[_Job] = queue.SimpleQueue()
        # the CPUs the process may run on; empty where threads cannot be pinned
        self.cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        self.avoided: int | None = None
        self.thread = threading.Thread(target=self._run, name="lunet-grads", daemon=True)
        self.thread.start()

    def keep_off(self, cpu: int | None):
        """Let the worker run on any of the process's CPUs but `cpu`, the one
        the thread queueing jobs is on. Left to itself, a kernel may wake the
        worker on its waker's CPU every time, so that the two threads share
        one core while another idles: on a 2-vCPU VM, where an idle vCPU
        reads as preempted, they shared one in every sample taken."""
        if cpu is None or cpu == self.avoided or len(self.cpus) < 2:
            return
        self.avoided = cpu
        try:
            os.sched_setaffinity(self.thread.native_id, self.cpus - {cpu})
        except OSError:  # the process's CPUs changed since; leave it be
            pass

    def _run(self):
        while True:
            job = self.jobs.get()
            try:
                job.fn()
            except Exception as e:  # raised again where the grads are read
                job.error = e
            job.fn = None  # let go of the operands
            job.done.set()


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on (Linux: field 39 of
    /proc/thread-self/stat), or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


# One worker per process, shared by every layer: a second core is all it can
# use. A forked child does not inherit the thread, so it starts its own.
_grad_worker: _GradWorker | None = None
_grad_worker_lock = threading.Lock()


def _worker() -> _GradWorker:
    global _grad_worker
    with _grad_worker_lock:
        if _grad_worker is None or _grad_worker.pid != os.getpid():
            _grad_worker = _GradWorker()
        return _grad_worker


class Layer:
    """Base: named parameter map plus a same-shaped gradient accumulator map."""

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__.lower()
        self.params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._jobs: list[_Job] = []
        self._cache = None

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """The gradient accumulators, once every job this layer queued is
        done; the first exception such a job raised is raised here."""
        jobs, self._jobs = self._jobs, []
        for job in jobs:
            job.done.wait()
        for job in jobs:
            if job.error is not None:
                raise job.error
        return self._grads

    def _defer(self, fn):
        """Run `fn`, which adds into `self._grads`, on the gradient worker, or
        here where the worker cannot pay (QUEUE_PRODUCTS)."""
        if not QUEUE_PRODUCTS:
            fn()
            return
        job = _Job(fn)
        self._jobs.append(job)
        worker = _worker()
        worker.keep_off(_current_cpu())
        worker.jobs.put(job)

    def add_param(self, pname: str, value: np.ndarray):
        if pname in self.params:
            raise ValueError(f"duplicate parameter name {pname!r} in {self.name}")
        self.params[pname] = value
        # calloc'd: a model that never trains never touches these pages
        self._grads[pname] = np.zeros(value.shape)

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
        # contiguous taps [m, c_in, c_out]: a strided f[:, :, j].T cannot go to BLAS
        taps = np.ascontiguousarray(self.params["filters"].transpose(2, 1, 0))
        out = np.broadcast_to(self.params["bias"], (x.shape[0], l_out, self.c_out)).copy()
        # with one input channel a tap is an outer product: a broadcast multiply
        # gives the bits of the K=1 GEMM without its call overhead
        tap = np.multiply if self.c_in == 1 else np.matmul
        for j in range(self.m):
            out += tap(x[:, j:j + l_out, :], taps[j])
        self._cache = (x, l_out) if mode == "train" else None
        return out

    def backward(self, upstream):
        x, l_out = self._require_cache()
        if upstream.shape != (x.shape[0], l_out, self.c_out):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        taps = np.ascontiguousarray(self.params["filters"].transpose(2, 0, 1))  # [m, c_out, c_in]

        def weight_grads():
            u2 = upstream.reshape(-1, self.c_out)
            df = self._grads["filters"]
            for j in range(self.m):
                df[:, :, j] += u2.T @ x[:, j:j + l_out, :].reshape(-1, self.c_in)
            self._grads["bias"] += upstream.sum(axis=(0, 1))

        self._defer(weight_grads)
        dx = np.zeros_like(x)
        for j in range(self.m):
            dx[:, j:j + l_out, :] += upstream @ taps[j]
        return dx


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        self._cache = x > 0 if mode == "train" else None
        return np.maximum(0.0, x)

    def backward(self, upstream):
        mask = self._require_cache()
        # subgradient at 0 is 0
        return upstream * mask


class MaxPool1D(Layer):
    """Non-overlapping max pooling over the length axis; remainder dropped.

    Forward returns each window's maximum (NaN if the window holds one; a
    tie of +0 and -0 may give either zero). Backward routes the gradient to
    the first maximal element per window. A train-mode forward keeps only
    that element's index in its window, in the smallest unsigned integer type
    that holds it, not the windows: a sixteenth of their size at pool size 2.
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
        if mode == "train":
            idx = np.argmax(xw, axis=2)  # first occurrence on ties
            self._cache = (x.shape, idx.astype(np.min_scalar_type(self.pool - 1)))
        else:
            self._cache = None
        return xw.max(axis=2)

    def backward(self, upstream):
        shape, idx = self._require_cache()
        b, length, c = shape
        n = idx.shape[1]
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
    running <- BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch_stat.
    """

    def __init__(self, features: int, epsilon: float = 1e-5, name: str = "bn"):
        super().__init__(name)
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        self.features = features
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
            self.running_mean[...] = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
            self.running_var[...] = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        xhat = (x - mu) * inv_std
        n = int(np.prod([x.shape[a] for a in axes]))
        self._cache = (xhat, inv_std, n, axes) if mode == "train" else None
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, upstream):
        xhat, inv_std, n, axes = self._require_cache()
        if upstream.shape != xhat.shape:
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self.grads["gamma"] += (upstream * xhat).sum(axis=axes)
        self.grads["beta"] += upstream.sum(axis=axes)
        dxhat = upstream * self.params["gamma"]
        return (inv_std / n) * (n * dxhat - dxhat.sum(axis=axes)
                                - xhat * (dxhat * xhat).sum(axis=axes))


class LSTM(Layer):
    """LSTM over [batch, length, in] with four gate sub-nets p, g, f, q.

    Each sub-net computes b + x(t) @ U + h(t-1) @ W; the cell state update is
    s(t) = sigmoid(f) * s(t-1) + sigmoid(p) * tanh(g) and the output is
    h(t) = tanh(s(t)) * sigmoid(q). State starts at zeros for every sequence.
    The four sub-nets are stored gate-stacked: U [in, 4c], W [c, 4c] and
    b [4c] hold the gates as column blocks in the order p|g|f|q, so a step
    makes one h @ W product and the input products are made for a block of
    timesteps at once. Gate activations and states are kept time-major
    ([length, batch, .]) between forward and backward. An infer-mode forward
    holds one block of gate pre-activations (about INFER_BLOCK_BYTES) and one
    cell-state row besides its output.
    """

    def __init__(self, in_dim: int, cells: int, rng: Rng, name: str = "lstm"):
        super().__init__(name)
        self.in_dim, self.cells = in_dim, cells
        # drawn gate by gate (U_p, W_p, U_g, W_g, ...), then stacked
        draws = [(rng.normal((in_dim, cells), 0.0, 0.1), rng.normal((cells, cells), 0.0, 0.1))
                 for _ in range(4)]
        self.add_param("U", np.concatenate([u for u, _ in draws], axis=1))
        self.add_param("W", np.concatenate([w for _, w in draws], axis=1))
        self.add_param("b", np.zeros(4 * cells))

    def forward(self, x, mode="train"):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ValueError(f"{self.name}: expected [batch, length, {self.in_dim}], got {x.shape}")
        b, length, _ = x.shape
        if length < 1:
            raise ValueError(f"{self.name}: empty sequence")
        c, p = self.cells, self.params
        train = mode == "train"
        # Time-major, so each step reads and writes contiguous rows. The input
        # products b + x(t) @ U are made a block of timesteps at a time, into
        # gates; gates[k] is overwritten at its step with the gate activations
        # sigmoid(p) | tanh(g) | sigmoid(f) | sigmoid(q). Backward reads every
        # step's activations, so train makes one block of the whole sequence;
        # infer reuses a block of about INFER_BLOCK_BYTES. A one-row product
        # would go to GEMV and round differently, so one sequence alone also
        # keeps a single block.
        if train or b == 1:
            block = length
        else:
            block = min(length, max(1, INFER_BLOCK_BYTES // (b * 4 * c * 8)))
        gates = np.empty((block, b, 4 * c))
        hs = np.zeros((length + 1, b, c))  # hs[t] is h(t-1); hs[0] is the zero state
        # train keeps every s(t) for backward; infer updates one row in place
        ss = np.zeros((length + 1 if train else 1, b, c))
        ig = np.empty((b, c))
        for t in range(length):
            k = t % block
            if k == 0:
                steps = gates[:min(block, length - t)]
                xt = x[:, t:t + len(steps)].transpose(1, 0, 2).reshape(-1, self.in_dim)  # a copy
                np.matmul(xt, p["U"], out=steps.reshape(-1, 4 * c))
                steps += p["b"]
            z = gates[k]
            z += hs[t] @ p["W"]
            i_g, g_g, f_q = z[:, :c], z[:, c:2 * c], z[:, 2 * c:]
            sigmoid(i_g, out=i_g)
            np.tanh(g_g, out=g_g)
            sigmoid(f_q, out=f_q)
            f_g, q_g = f_q[:, :c], f_q[:, c:]
            s_prev, s, h = ss[t % len(ss)], ss[(t + 1) % len(ss)], hs[t + 1]
            np.multiply(f_g, s_prev, out=s)
            np.multiply(i_g, g_g, out=ig)
            s += ig
            np.tanh(s, out=h)
            h *= q_g
        self._cache = (x, gates, hs, ss) if train else None
        return np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(self, upstream):
        x, gates, hs, ss = self._require_cache()
        b, length, _ = x.shape
        c, p = self.cells, self.params
        if upstream.shape != (b, length, c):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        # batch-major, so the products after the loop need no transpose and
        # sum in the order of a batch-major cache
        da = np.empty((b, length, 4 * c))
        dh_next = np.zeros((b, c))
        ds_next = np.zeros((b, c))
        tanh_s = np.tanh(ss[1:])
        for t in reversed(range(length)):
            z, dz = gates[t], da[:, t]
            i_g, g_g, f_g, q_g = z[:, :c], z[:, c:2 * c], z[:, 2 * c:3 * c], z[:, 3 * c:]
            da_p, da_g, da_f, da_q = dz[:, :c], dz[:, c:2 * c], dz[:, 2 * c:3 * c], dz[:, 3 * c:]
            ts = tanh_s[t]
            dh = upstream[:, t] + dh_next
            da_q[...] = dh * ts * q_g * (1 - q_g)
            ds = dh * q_g * (1 - ts * ts) + ds_next
            da_f[...] = ds * ss[t] * f_g * (1 - f_g)
            da_p[...] = ds * g_g * i_g * (1 - i_g)
            da_g[...] = ds * i_g * (1 - g_g * g_g)
            ds_next = ds * f_g
            dh_next = dz @ p["W"].T
        da = da.reshape(-1, 4 * c)

        def weight_grads():
            g = self._grads
            h_prev = hs[:-1].transpose(1, 0, 2).reshape(-1, c)  # a batch-major copy
            g["U"] += x.reshape(-1, self.in_dim).T @ da
            g["W"] += h_prev.T @ da
            g["b"] += da.sum(axis=0)

        self._defer(weight_grads)
        return (da @ p["U"].T).reshape(x.shape)


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with 1/(1-rate) survivor scaling;
    inference is the exact identity. Each train-mode forward draws a new mask
    from `rng`, so re-seeding `rng` from its seed draws the same mask again."""

    def __init__(self, rate: float, rng: Rng, name: str = "dropout"):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {rate}")
        self.rate = rate
        self.rng = rng

    def forward(self, x, mode="train"):
        if mode != "train":
            self._cache = None
            return x
        if self.rate == 0.0:
            self._cache = 1.0  # the mask of rate 0
            return x
        self._cache = (self.rng.uniform(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._cache

    def backward(self, upstream):
        return upstream * self._require_cache()


class GlobalAvgPool(Layer):
    """Mean over the length axis: [batch, length, c] -> [batch, c]."""

    def __init__(self, name: str = "gap"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        if x.ndim != 3:
            raise ValueError(f"{self.name}: expected rank-3 input, got {x.shape}")
        self._cache = x.shape if mode == "train" else None
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
        self._cache = x if mode == "train" else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, upstream):
        x = self._require_cache()
        if upstream.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self.grads["W"] += x.T @ upstream
        self.grads["b"] += upstream.sum(axis=0)
        return upstream @ self.params["W"].T
