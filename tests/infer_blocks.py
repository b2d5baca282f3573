"""Batch invariance of infer-mode `LuNetModel.forward`: a row's
probabilities never depend on the rows that share its call, bit for bit.

`single_pass` is the reference: every layer in infer mode over the whole
batch at once, then `tensor.softmax`. `first_mismatch` makes one reference
pass over `max(SIZES)` rows per class count, at the paper widths with random
biases (`golden_infer.infer_model`), for 2 and 5 classes. Each forward of
the first rows of every size in SIZES, and of every window in WINDOWS, must
give the bits of the same rows of that pass. `test_infer_blocks.py` runs it
in its own process and as

    PYTHONPATH=src python tests/infer_blocks.py

at one and two BLAS threads; the exit status is 0 when every case matches.
"""

from __future__ import annotations

import sys

import numpy as np

from golden_infer import CLASSES, infer_model
from lunet.tensor import Rng, softmax

# every size from one row to two blocks and twelve rows, and three sizes that
# leave a one-row last block
SIZES = (*range(1, 141), 193, 257, 321)
# (offset, rows) of windows that start at odd rows
WINDOWS = tuple((offset, rows) for offset in (1, 3, 5, 17, 63) for rows in (1, 2, 37, 66))


def single_pass(model, x: np.ndarray) -> np.ndarray:
    """Probabilities of one infer-mode pass of the layer stack over all of x."""
    out = x[:, :, None]
    for layer in model.layers:
        out = layer.forward(out, mode="infer")
    return softmax(out)


def first_mismatch() -> str | None:
    """The first (classes, rows) case where `forward` is not bitwise the same
    rows of `single_pass` over all rows, with how many values differ; None
    if all match."""
    x = Rng(12).normal((max(SIZES), 122))
    cases = [(0, rows) for rows in SIZES] + list(WINDOWS)
    for classes in CLASSES:
        model = infer_model(classes)
        want = single_pass(model, x)
        for offset, rows in cases:
            got = model.forward(x[offset:offset + rows])
            if got.tobytes() != want[offset:offset + rows].tobytes():
                return (f"classes {classes}, rows {offset} to {offset + rows}: "
                        f"{np.count_nonzero(got != want[offset:offset + rows])} values differ")
    return None


if __name__ == "__main__":
    mismatch = first_mismatch()
    print(mismatch or "ok")
    sys.exit(0 if mismatch is None else 1)
