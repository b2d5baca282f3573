"""Infer-mode `LuNetModel.forward`, which runs its rows in blocks of
`INFER_CHUNK`, against one pass over all rows, bit for bit.

`single_pass` is the reference: every layer in infer mode over the whole
batch at once, then `tensor.softmax`. `first_mismatch` compares the two at
the paper widths, with random biases (`golden_infer.infer_model`), for 2 and
5 classes at every batch size in SIZES. `test_infer_blocks.py` runs it in
its own process and as

    PYTHONPATH=src python tests/infer_blocks.py

at one and two BLAS threads; the exit status is 0 when every case matches.
"""

from __future__ import annotations

import sys

import numpy as np

from golden_infer import CLASSES, infer_model
from lunet.tensor import Rng, softmax

# every size from one row to two blocks and twelve rows, and three sizes that
# leave a one-row remainder
SIZES = (*range(1, 141), 193, 257, 321)


def single_pass(model, x: np.ndarray) -> np.ndarray:
    """Probabilities of one infer-mode pass of the layer stack over all of x."""
    out = x[:, :, None]
    for layer in model.layers:
        out = layer.forward(out, mode="infer")
    return softmax(out)


def first_mismatch() -> str | None:
    """The first (classes, rows) case where `forward` is not bitwise
    `single_pass`, with how many values differ; None if all match."""
    x = Rng(12).normal((max(SIZES), 122))
    for classes in CLASSES:
        model = infer_model(classes)
        for rows in SIZES:
            got, want = model.forward(x[:rows]), single_pass(model, x[:rows])
            if got.tobytes() != want.tobytes():
                return (f"classes {classes}, {rows} rows: "
                        f"{np.count_nonzero(got != want)} values differ")
    return None


if __name__ == "__main__":
    mismatch = first_mismatch()
    print(mismatch or "ok")
    sys.exit(0 if mismatch is None else 1)
