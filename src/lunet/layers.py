"""Differentiable layers: 1D convolution, max pooling, batch normalization,
LSTM, dropout, global average pooling and dense.

Every layer exposes `backward(upstream)`, which returns the gradient w.r.t.
the layer input and writes each parameter's gradient whole into `self.grads`
(same keys and shapes as `self.params`), where it stays until the RMSprop
step takes it; a layer that never runs backward holds none. A train-mode
forward keeps in `_cache` what backward needs; no layer builds backward
state in infer mode, so there `_cache` is None and `backward` raises
RuntimeError. In both modes `ReLU` and `BatchNorm` write their output into
their input, `LSTM` writes its h(t) straight into its output and `Conv1D`
adds its taps into its output through one buffer per block of batch rows
(BLOCK_BYTES); the mode decides only which statistics are used and what is
kept for backward.

Where BLAS runs one thread and a second CPU is there (QUEUE_PRODUCTS),
independent work goes to one worker thread ("lunet-grads", a one-thread
ThreadPoolExecutor made at the first hand-over in a process, which keeps
itself off the CPU of the thread that hands work over) in one of two ways:
- `with beside(fn):` runs `fn` there while the body runs here. `fn` reads
  only what the body does not write and writes only what the body does not
  read; the end of the body waits for it, or runs it here if the worker has
  not started it, also when the body raised, and raises either side's
  exception. Train-mode `Conv1D` and `LSTM` forwards, an infer-mode
  `LuNetModel.forward` and the table passes of `data` hand work over so.
- `Layer._defer(fn)` queues a weight-gradient product of a backward, which
  writes the layer's gradients only. It reads the layer's forward
  input and `upstream` (and the LSTM's forward output), so a caller must not
  write into any of these until it has read `grads`, which waits for every
  product the layer queued, never runs one itself, and raises the first
  exception they raised.
In infer mode a layer hands nothing over: the model shares its blocks of
rows with the worker instead. A job runs under the numpy error state of the
thread that handed it over, and keeps the shape, operands and accumulation
order it has inline, so every output and gradient is bitwise that of a
single-threaded pass. The thread is not a daemon: interpreter exit lets it
finish what it holds and joins it.
"""

from __future__ import annotations

import contextlib
import os
import threading
from functools import partial

import numpy as np

from .tensor import Rng, sigmoid

# Bytes a forward makes at a time for a block of its work: the LSTM gate
# pre-activations of a block of timesteps (at least one step), and the
# conv tap products of a block of batch rows (at least one row; half the
# budget for each of the two threads that may run convs at once). Measured
# for the LSTM at the paper widths (Xeon with 2 MiB of L2 per core, BLAS 1
# thread): from 128 KiB to 2 MiB a 256-row forward's rows/s is flat within
# noise, and at 4 MiB a 64-row forward's peak grows. 1 MiB keeps a block in
# L2 from its input product to its step.
BLOCK_BYTES = 1 << 20

# OpenBLAS's float64 GEMM makes rows in groups of 4 and rounds those of a last
# partial group otherwise, as numpy's GEMV does a one-row product; so infer-mode
# Dense pads its rows to a multiple of 4 and LSTM runs one row as two
_GEMM_ROWS = 4

BN_MOMENTUM = 0.99  # weight of the old value in a batch-norm running statistic
BN_EPSILON = 1e-5  # added to a batch-norm variance before its square root


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


class _GradWorker:
    """The process's one worker thread, "lunet-grads": a one-thread
    ThreadPoolExecutor, which runs jobs one at a time, in the order they were
    started; the module docstring says what a job may read and write. A job
    calls no model, train or data function and no layer instance's `forward`
    attribute (the model's runs each layer's class `forward`), so wrappers
    that time those from one thread never see this one."""

    def __init__(self):
        # here: at module level it puts `logging` in every `import lunet` (4-12 ms)
        from concurrent.futures import ThreadPoolExecutor

        self.pid = os.getpid()
        # the CPUs the process may run on; empty where threads cannot be pinned
        self.cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
        self.avoided: int | None = None  # read and written on the worker only
        # named here, as thread_name_prefix would append "_0"
        self.pool = ThreadPoolExecutor(1, initializer=lambda: setattr(
            threading.current_thread(), "name", "lunet-grads"))

    def run_kept_off(self, cpu: int | None, errstate: dict, fn):
        """Run `fn` on the worker under numpy error state `errstate`, the
        submitting thread's, after letting it run on any of the process's CPUs
        but `cpu`, the one that submitted the job. Left to itself, a kernel
        may wake the worker on its waker's CPU every time, so that the two
        share one core while another idles: on a 2-vCPU VM they shared one in
        every sample taken."""
        if cpu is not None and cpu != self.avoided and len(self.cpus) >= 2:
            self.avoided = cpu
            try:
                os.sched_setaffinity(0, self.cpus - {cpu})
            except OSError:  # the process's CPUs changed since; leave it be
                pass
        with np.errstate(**errstate):
            fn()


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


def _start(fn):
    """Start `fn` on the worker, under the calling thread's numpy error state,
    so it warns, raises or stays silent as it would here; return its future."""
    worker = _worker()
    return worker.pool.submit(worker.run_kept_off, _current_cpu(), np.geterr(), fn)


@contextlib.contextmanager
def beside(fn):
    """Run `fn` on the worker while the `with` body runs here, then wait for
    it, or run it here if the worker has not started it (a future that
    cancels was not started, and the worker skips it, so exactly one thread
    runs `fn`); raise either side's exception once both are done. Where the
    worker cannot pay (QUEUE_PRODUCTS) `fn` runs here before the body;
    `beside(None)` runs the body alone."""
    if fn is None or not QUEUE_PRODUCTS:
        if fn is not None:
            fn()
        yield
        return
    future = _start(fn)
    try:
        yield
    finally:
        if future.cancel():
            fn()
        else:
            future.result()


class Layer:
    """Base: named parameter map plus, by the same names, the gradients its
    last backward wrote, held until the RMSprop step takes them."""

    def __init__(self, name: str = ""):
        self.name = name or self.__class__.__name__.lower()
        self.params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}
        self._jobs: list = []  # futures of the products `_defer` queued
        self._cache = None

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """The gradients, once every job this layer queued is done; the first
        exception such a job raised is raised here."""
        jobs, self._jobs = self._jobs, []
        for error in [f.exception() for f in jobs]:
            if error is not None:
                raise error
        return self._grads

    def _defer(self, fn):
        """Run `fn`, which writes into `self._grads`, on the worker, or here
        where the worker cannot pay; `grads` waits for it."""
        if QUEUE_PRODUCTS:
            self._jobs.append(_start(fn))
        else:
            fn()

    def add_param(self, pname: str, value: np.ndarray):
        if pname in self.params:
            raise ValueError(f"duplicate parameter name {pname!r} in {self.name}")
        self.params[pname] = value

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
        b, length, _ = x.shape
        if length < self.m:
            raise ValueError(f"{self.name}: input length {length} < kernel size {self.m}")
        l_out = length - self.m + 1
        # contiguous taps [m, c_in, c_out]: a strided f[:, :, j].T cannot go to BLAS
        taps = np.ascontiguousarray(self.params["filters"].transpose(2, 1, 0))
        out = np.empty((b, l_out, self.c_out))
        # with one input channel a tap is an outer product: a broadcast multiply
        # gives the bits of the K=1 GEMM without its call overhead
        tap = np.multiply if self.c_in == 1 else np.matmul
        block = max(1, BLOCK_BYTES // (2 * l_out * self.c_out * 8))

        def rows(lo, hi):
            # each tap is written into one buffer per block of rows and added
            # into the output; matmul on the strided view makes one GEMM per
            # batch row, so a row's bits do not depend on which rows share
            # the call
            buf = np.empty((min(block, hi - lo), l_out, self.c_out))
            for r0 in range(lo, hi, block):
                o = out[r0:min(r0 + block, hi)]
                t = buf[:len(o)]
                o[...] = self.params["bias"]
                for j in range(self.m):
                    tap(x[r0:r0 + len(o), j:j + l_out, :], taps[j], out=t)
                    o += t

        if mode == "train":
            with beside(partial(rows, b // 2, b)):
                rows(0, b // 2)
        else:
            rows(0, b)
        self._cache = (x, l_out) if mode == "train" else None
        return out

    def backward(self, upstream):
        x, l_out = self._require_cache()
        if upstream.shape != (x.shape[0], l_out, self.c_out):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        taps = np.ascontiguousarray(self.params["filters"].transpose(2, 0, 1))  # [m, c_out, c_in]

        def weight_grads():
            u2 = upstream.reshape(-1, self.c_out)
            df = np.empty_like(self.params["filters"])
            for j in range(self.m):
                df[:, :, j] = u2.T @ x[:, j:j + l_out, :].reshape(-1, self.c_in)
            self._grads["filters"] = df
            self._grads["bias"] = upstream.sum(axis=(0, 1))

        self._defer(weight_grads)
        dx = np.zeros_like(x)
        for j in range(self.m):
            dx[:, j:j + l_out, :] += upstream @ taps[j]
        return dx


class ReLU(Layer):
    """max(0, x). A forward clips its input in place and returns it, so a
    caller must not read that input afterwards; train mode first keeps
    x > 0 for backward."""

    def __init__(self, name: str = "relu"):
        super().__init__(name)

    def forward(self, x, mode="train"):
        self._cache = x > 0 if mode == "train" else None
        # 0.0 first: it decides which zero -0.0 gives
        return np.maximum(0.0, x, out=x)

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
            # np.argmax's first maximum (the first NaN in a window that holds
            # one) by a running compare, in under a third of its time
            idx = np.zeros((b, n, c), np.min_scalar_type(self.pool - 1))
            best = xw[:, :, 0]
            for k in range(1, self.pool):
                v = xw[:, :, k]
                take = (v > best) | (np.isnan(v) & ~np.isnan(best))
                idx += take * (k - idx)  # k where taken; idx < k, so nothing wraps
                best = np.maximum(best, v)  # NaN once the window has held one
            self._cache = (x.shape, idx)
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
    A forward subtracts the mean from its input in place (the batch mean in
    train mode, the running mean in infer mode), so a caller must not read
    that input afterwards. Infer mode finishes the output there and returns
    it; train mode keeps the normalized input for backward and returns a new
    array.
    """

    def __init__(self, features: int, name: str = "bn"):
        super().__init__(name)
        self.features = features
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
            mu, var = self.running_mean, self.running_var
        xhat = np.subtract(x, mu, out=x)
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std
        if mode != "train":
            self._cache = None
            xhat *= self.params["gamma"]
            xhat += self.params["beta"]
            return xhat
        n = int(np.prod([x.shape[a] for a in axes]))
        self._cache = (xhat, inv_std, n, axes)
        out = self.params["gamma"] * xhat
        out += self.params["beta"]
        return out

    def backward(self, upstream):
        xhat, inv_std, n, axes = self._require_cache()
        if upstream.shape != xhat.shape:
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self._grads["gamma"] = (upstream * xhat).sum(axis=axes)
        self._grads["beta"] = upstream.sum(axis=axes)
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
    timesteps at once. A forward writes each h(t) straight into its
    batch-major output. Train mode keeps that output, every step's gate
    activations and every cell state (time-major, [length, batch, .]) for
    backward. Infer mode runs one row as two, itself and a zero row
    (_GEMM_ROWS). Besides its output an infer-mode forward holds one block of
    gate pre-activations (about BLOCK_BYTES), the input rows of that block,
    a step's h @ W [batch, 4 * cells] and a few [batch, cells] rows: the
    zero h(-1), the cell state and the g pre-activation.
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
        rows = b
        if b == 1 and not train:  # one row runs as two (_GEMM_ROWS)
            x, b = np.concatenate([x, np.zeros_like(x)]), 2
        # Time-major, so each step reads and writes contiguous rows. The input
        # products b + x(t) @ U are made a block of about BLOCK_BYTES of
        # timesteps at a time. In train mode where the worker can pay, each
        # block's are made on the worker while the steps of the block before
        # it run here; otherwise each block's are made here just before its
        # steps. A block's rows are overwritten at their steps with the gate
        # activations sigmoid(p) | tanh(g) | sigmoid(f) | sigmoid(q).
        # Backward reads every step's activations, so train writes each block
        # into its place in the full-length gates; infer reuses one buffer.
        ahead = train and QUEUE_PRODUCTS
        block = min(length, max(1, BLOCK_BYTES // (b * 4 * c * 8)))
        gates = np.empty((length if train else min(length, block), b, 4 * c))

        def block_at(t0):
            """The gate rows of the block that starts at step t0."""
            k0 = t0 % len(gates)
            return gates[k0:k0 + min(block, length - t0)]

        def products(t0):
            steps = block_at(t0)
            xt = x[:, t0:t0 + len(steps)].transpose(1, 0, 2).reshape(-1, self.in_dim)  # a copy
            np.matmul(xt, p["U"], out=steps.reshape(-1, 4 * c))
            steps += p["b"]

        # h(t) goes straight into out[:, t], and the next step's h @ W reads
        # it there: a strided row rounds as a contiguous one
        out = np.empty((b, length, c))
        h, h_rows, w = np.zeros((b, c)), out.transpose(1, 0, 2), p["W"]
        # train keeps every s(t) for backward; infer updates one row in place
        ss = np.zeros((length + 1 if train else 1, b, c))
        g = np.empty((b, c))  # the g pre-activation, then sigmoid(p) * tanh(g)
        for t0 in range(0, length, block):
            if t0 == 0 or not ahead:
                products(t0)
            with beside(partial(products, t0 + block) if ahead and t0 + block < length else None):
                for t, z in enumerate(block_at(t0), start=t0):
                    # 15 numpy calls a step: one sigmoid over the whole gate
                    # row, then tanh of the copied g pre-activation into its slot
                    z += h @ w
                    g_g = z[:, c:2 * c]
                    np.copyto(g, g_g)
                    sigmoid(z, out=z)
                    np.tanh(g, out=g_g)
                    s_prev, s, h = ss[t % len(ss)], ss[(t + 1) % len(ss)], h_rows[t]
                    np.multiply(z[:, 2 * c:3 * c], s_prev, out=s)
                    np.multiply(z[:, :c], g_g, out=g)
                    s += g
                    np.tanh(s, out=h)
                    h *= z[:, 3 * c:]
        self._cache = (x, gates, out, ss) if train else None
        return out[:rows]

    def backward(self, upstream):
        x, gates, out, ss = self._require_cache()
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
            h_prev = np.zeros_like(out)  # batch-major h(t-1); h(-1) is zero
            h_prev[:, 1:] = out[:, :-1]
            g["U"] = x.reshape(-1, self.in_dim).T @ da
            g["W"] = h_prev.reshape(-1, c).T @ da
            g["b"] = da.sum(axis=0)

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
    """Fully-connected x @ W + b; infer mode pads the rows with zero rows to a
    multiple of _GEMM_ROWS."""

    def __init__(self, in_dim: int, out_dim: int, rng: Rng, name: str = "dense"):
        super().__init__(name)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.add_param("W", rng.normal((in_dim, out_dim), 0.0, np.sqrt(2.0 / in_dim)))
        self.add_param("b", np.zeros(out_dim))

    def forward(self, x, mode="train"):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"{self.name}: expected [batch, {self.in_dim}], got {x.shape}")
        self._cache = x if mode == "train" else None
        m = len(x)
        if mode != "train" and m % _GEMM_ROWS:
            x = np.concatenate([x, np.zeros((-m % _GEMM_ROWS, self.in_dim))])
        return (x @ self.params["W"] + self.params["b"])[:m]

    def backward(self, upstream):
        x = self._require_cache()
        if upstream.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.name}: upstream shape {upstream.shape} mismatch")
        self._grads["W"] = x.T @ upstream
        self._grads["b"] = upstream.sum(axis=0)
        return upstream @ self.params["W"].T
