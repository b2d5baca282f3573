"""LuNet architecture: repeated (Conv1D -> ReLU -> MaxPool -> BatchNorm ->
LSTM) levels with rising widths, then dropout, a final convolution,
global average pooling and a softmax classifier head."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import (LSTM, BatchNorm, Conv1D, Dense, Dropout, GlobalAvgPool,
                     Layer, MaxPool1D, ReLU)
from .tensor import Rng, softmax


# The paper's fixed architecture; older checkpoints record it (see from_mapping)
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
        for key, fixed in (("kernel_size", KERNEL_SIZE), ("pool_size", POOL_SIZE),
                           ("dropout_rate", DROPOUT_RATE)):
            if key in m and type(fixed)(m[key]) != fixed:
                raise ValueError(f"{key} is {m[key]}, but lunet's is fixed at {fixed}")
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
# Blocking keeps every bit of one pass over all rows as long as each block
# starts at a multiple of 4 rows (the row quantum of the dense head's GEMM
# on OpenBLAS, float64) and none holds a single row of a larger batch, which
# numpy hands to GEMV; so the block size is a multiple of 4, and a one-row
# remainder joins the last block.
INFER_CHUNK = 64


def _infer_blocks(n: int):
    """(start, stop) of each block of an n-row infer forward."""
    starts = list(range(0, n, INFER_CHUNK))
    if n > 1 and n % INFER_CHUNK == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


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

        In infer mode the stack runs over blocks of INFER_CHUNK rows, so a
        forward holds the activations of one block at a time, and each row's
        probabilities are bitwise those of one pass over all rows. No layer
        keeps its backward state there, so `backward` after an infer-mode
        forward raises RuntimeError. Train mode runs the whole batch at once:
        batch-norm statistics depend on it."""
        if x.ndim != 2 or x.shape[1] != self.spec.input_features:
            raise ValueError(
                f"expected [batch, {self.spec.input_features}] input, got {x.shape}")
        n = x.shape[0]
        probs = np.empty((n, self.spec.num_classes))
        for start, stop in [(0, n)] if self.mode == "train" else _infer_blocks(n):
            out = x[start:stop, :, None]
            for layer in self.layers:
                out = layer.forward(out, mode=self.mode)
            probs[start:stop] = softmax(out)
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
        """Argmax class per row, computed in infer mode; ties go to the lowest index."""
        prev = self.mode
        self.mode = "infer"
        try:
            probs = self.forward(x)
        finally:
            self.mode = prev
        return np.argmax(probs, axis=1)

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
