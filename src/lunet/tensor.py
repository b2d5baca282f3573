"""Shape checks, a numerically safe sigmoid and softmax, and the deterministic
random source.

Tensors are plain numpy float64 arrays in row-major order.
"""

from __future__ import annotations

import numpy as np

MAX_RANK = 3


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
    """Elementwise logistic function; `out` may be `x` itself."""
    # exp of a non-positive argument never overflows; x >= 0 picks 1/(1+e^-x),
    # x < 0 picks e^x/(1+e^x). e <= 1, so max(e, x >= 0) is 1 or e (NaN stays
    # NaN), and costs less than np.where with a scalar branch.
    e = np.abs(x)
    np.negative(e, out=e)
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
