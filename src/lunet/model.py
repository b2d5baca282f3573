"""LuNet architecture: repeated (Conv1D -> ReLU -> MaxPool -> BatchNorm ->
LSTM) levels with rising widths, then dropout, a final convolution,
global average pooling and a softmax classifier head."""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import layers as layers_mod
from .layers import (LSTM, BatchNorm, Conv1D, Dense, Dropout, GlobalAvgPool,
                     Layer, MaxPool1D, ReLU, beside)
from .tensor import Rng, softmax


# The paper's fixed architecture, which no spec or checkpoint records
KERNEL_SIZE = 3
POOL_SIZE = 2
DROPOUT_RATE = 0.5


@dataclass
class LuNetSpec:
    """Declarative description of a LuNet stack."""

    input_features: int
    num_classes: int
    levels: tuple[int, ...] = (64, 128, 256)
    final_conv_filters: int = 256
    init_seed: int = 0

    def __post_init__(self):
        self.levels = tuple(int(w) for w in self.levels)
        if not self.levels or any(w < 1 for w in self.levels):
            raise ValueError(f"levels must be non-empty positive widths, got {self.levels}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_features < 1:
            raise ValueError("input_features must be >= 1")
        if self.final_conv_filters < 1:
            raise ValueError("final_conv_filters must be >= 1")

    def to_mapping(self) -> dict[str, str]:
        return {
            "input_features": str(self.input_features),
            "num_classes": str(self.num_classes),
            "levels": ",".join(str(w) for w in self.levels),
            "final_conv_filters": str(self.final_conv_filters),
            "init_seed": str(self.init_seed),
        }

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "LuNetSpec":
        unknown = [key for key in m if key not in cls.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown spec key {unknown[0]!r}")
        return cls(
            input_features=int(m["input_features"]),
            num_classes=int(m["num_classes"]),
            levels=tuple(int(w) for w in m["levels"].split(",")),
            final_conv_filters=int(m["final_conv_filters"]),
            init_seed=int(m["init_seed"]),
        )


# Rows per block of an infer-mode forward, picked by measurement: 1,024 rows
# through a paper-width model ran at 509/592/614/582 rows/s in blocks of
# 256/128/64/32 (median of 9 interleaved passes, 2-core host, BLAS 1 thread).
# Smaller blocks keep more of each layer's working set in cache until
# per-call overhead wins, and a forward's peak memory is that of one block.
# Where the calling thread and the worker share a call's blocks, each thread
# takes blocks of this size too. A block's LSTM steps make 15 numpy calls at
# each of the 102 paper-width timesteps whatever its rows, and each call may
# hand the GIL to the other thread, so 32-row blocks paid twice the calls a
# row. With one sigmoid per LSTM timestep, moving from 32 to 64 rows a
# thread ran evaluate-nslkdd at a median 1,219 against 1,046 rows/s over 10
# alternating pairs (2-core host, BLAS 1 thread), for 3.3 MiB more peak RSS.
# Where the threads share blocks, a call of 16 to 2 x INFER_CHUNK rows is cut
# in two instead, so that both threads work on it (`LuNetModel.forward`). A
# smaller call runs as one block on the calling thread: the two threads
# contend for the GIL on small numpy calls, and at paper widths (BLAS 1,
# 2-core Xeon) a cut call of 6, 8 and 12 rows took 19.4, 22.4 and 27.4 ms
# against 15.1, 18.2 and 24.8 as one block; 16 rows took 31.0 against 32.2,
# and 24 rows 42.1 against 48.7.
INFER_CHUNK = 64


class NonFiniteProbabilities(FloatingPointError):
    """Row `row` (counted from 0) of a prediction's `rows` has class
    probabilities that are not all finite; `finding` says so and names
    `layer`, the first layer whose output went non-finite there."""

    def __init__(self, row: int, rows: int, layer: str):
        self.row = row
        self.finding = (f"has non-finite class probabilities; {layer} is the first layer "
                        "whose output went non-finite")
        super().__init__(f"row {row + 1} of {rows} {self.finding}")


@dataclass
class LuNetModel:
    spec: LuNetSpec
    layers: list[Layer] = field(default_factory=list)
    mode: str = "train"

    def set_mode(self, mode: str):
        if mode not in ("train", "infer"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

    def forward(self, x: np.ndarray) -> np.ndarray:
        """[batch, input_features] -> class-probability rows summing to 1.

        In infer mode a row's probabilities never depend on how many rows
        share the call, and the stack runs over blocks of at most INFER_CHUNK
        rows, so a forward holds the activations of a block at a time. Where
        the worker can pay, a call of 16 to 2 x INFER_CHUNK rows is cut in
        two, and the `lunet-grads` worker takes blocks from the same queue as
        this thread (`layers.beside`). The worker calls each layer's class
        `forward`, so a wrapper on an instance's `forward` sees this thread's
        blocks alone. A block that raises empties the queue, so the other
        thread stops after its block. No layer keeps its backward state
        there, so `backward` after an infer-mode forward raises RuntimeError.
        Train mode runs the whole batch at once: batch-norm statistics depend
        on it."""
        if x.ndim != 2 or x.shape[1] != self.spec.input_features:
            raise ValueError(
                f"expected [batch, {self.spec.input_features}] input, got {x.shape}")
        n, mode = x.shape[0], self.mode
        probs = np.empty((n, self.spec.num_classes))
        rows = INFER_CHUNK
        if layers_mod.QUEUE_PRODUCTS and n >= 16:
            rows = min(rows, -(-n // 2))
        pending = deque([(0, n)] if mode == "train" else
                        [(start, min(start + rows, n)) for start in range(0, n, rows)])
        lock = threading.Lock()

        def run(forwards):
            try:
                while True:
                    with lock:
                        if not pending:
                            return
                        start, stop = pending.popleft()
                    out = x[start:stop, :, None]
                    for forward in forwards:
                        out = forward(out, mode=mode)
                    probs[start:stop] = softmax(out)
            except BaseException:
                with lock:
                    pending.clear()
                raise

        shared = len(pending) > 1 and layers_mod.QUEUE_PRODUCTS
        with beside(partial(run, [partial(type(layer).forward, layer) for layer in self.layers])
                    if shared else None):
            run([layer.forward for layer in self.layers])
        return probs

    def backward(self, delta: np.ndarray) -> np.ndarray:
        """Propagate a loss gradient through the stack.

        `delta` is (probs - onehot)/batch, the fused softmax + cross-entropy
        adjoint w.r.t. the logits of the last layer.
        """
        for layer in reversed(self.layers):
            delta = layer.backward(delta)
        return delta[:, :, 0]

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        """Argmax class per row, computed in infer mode; ties go to the lowest
        index. A row whose probabilities are not all finite is never argmaxed:
        the first such row raises NonFiniteProbabilities, a FloatingPointError
        naming it (counted from 1) and the first layer whose output went
        non-finite there. numpy's overflow warnings are off, as this check
        reports them."""
        prev = self.mode
        self.mode = "infer"
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                probs = self.forward(x)
                finite = np.isfinite(probs).all(axis=1)
                if not finite.all():
                    i = int(np.argmin(finite))
                    raise NonFiniteProbabilities(i, len(x), self._first_nonfinite_layer(x, i))
        finally:
            self.mode = prev
        return np.argmax(probs, axis=1)

    def _first_nonfinite_layer(self, x: np.ndarray, i: int) -> str:
        """The name of the first layer whose infer-mode output for row `i` of
        `x` is not finite, found by running that row alone again layer by
        layer, or "softmax" if none is."""
        out = x[i:i + 1, :, None]
        for layer in self.layers:
            out = layer.forward(out, mode="infer")
            if not np.isfinite(out).all():
                return layer.name
        return "softmax"

    def named_params(self):
        for layer in self.layers:
            for pname, value in layer.params.items():
                yield f"{layer.name}.{pname}", layer, pname, value

    def named_state(self):
        for layer in self.layers:
            for sname, value in layer.state_tensors().items():
                yield f"{layer.name}.{sname}", value

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()


def _levels(spec: LuNetSpec):
    """Yield (tag, input channels, width) of each level by walking the input
    length through its conv and pool, then check that the head conv still
    fits; raise ValueError, naming the level, where the length runs out."""
    length = spec.input_features
    for k, (c_in, width) in enumerate(zip((1,) + spec.levels, spec.levels)):
        tag = f"level{k}"
        if length < KERNEL_SIZE:
            raise ValueError(
                f"input length exhausted at {tag}: conv needs length >= "
                f"{KERNEL_SIZE}, have {length}")
        length = length - KERNEL_SIZE + 1
        if length < POOL_SIZE:
            raise ValueError(
                f"input length exhausted at {tag}: pool needs length >= "
                f"{POOL_SIZE}, have {length}")
        length = length // POOL_SIZE
        yield tag, c_in, width
    if length < KERNEL_SIZE:
        raise ValueError(
            f"input length exhausted at head conv: needs length >= "
            f"{KERNEL_SIZE}, have {length}")


def tensor_shapes(spec: LuNetSpec) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter and batch-norm statistic `build(spec)`
    makes, by name, from the length walk alone: nothing is allocated."""
    k, shapes = KERNEL_SIZE, {}
    for tag, c_in, width in _levels(spec):
        shapes[f"{tag}.conv.filters"] = (width, c_in, k)
        for name in ("conv.bias", "bn.gamma", "bn.beta", "bn.running_mean", "bn.running_var"):
            shapes[f"{tag}.{name}"] = (width,)
        shapes[f"{tag}.lstm.U"] = shapes[f"{tag}.lstm.W"] = (width, 4 * width)
        shapes[f"{tag}.lstm.b"] = (4 * width,)
    f, classes = spec.final_conv_filters, spec.num_classes
    shapes.update({"head.conv.filters": (f, spec.levels[-1], k), "head.conv.bias": (f,),
                   "head.dense.W": (f, classes), "head.dense.b": (classes,)})
    return shapes


def build(spec: LuNetSpec, init_rng=None) -> LuNetModel:
    """Instantiate the layer stack, drawing its weights from `init_rng`
    (`Rng(spec.init_seed)` by default, or anything with its `normal`); fail,
    naming the level, where the input length runs out."""
    init_rng = Rng(spec.init_seed) if init_rng is None else init_rng
    drop_rng = Rng(spec.init_seed + 1)
    layers: list[Layer] = []
    for tag, c_in, width in _levels(spec):
        layers += [Conv1D(c_in, width, KERNEL_SIZE, init_rng, name=f"{tag}.conv"),
                   ReLU(name=f"{tag}.relu"),
                   MaxPool1D(POOL_SIZE, name=f"{tag}.pool"),
                   BatchNorm(width, name=f"{tag}.bn"),
                   LSTM(width, width, init_rng, name=f"{tag}.lstm")]
    layers += [Dropout(DROPOUT_RATE, drop_rng, name="head.dropout"),
               Conv1D(spec.levels[-1], spec.final_conv_filters, KERNEL_SIZE, init_rng,
                      name="head.conv"),
               ReLU(name="head.relu"),
               GlobalAvgPool(name="head.gap"),
               Dense(spec.final_conv_filters, spec.num_classes, init_rng, name="head.dense")]
    return LuNetModel(spec=spec, layers=layers)
