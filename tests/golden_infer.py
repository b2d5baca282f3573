"""Paper-width infer probabilities, pinned in `tests/data/golden_infer.npz`.

Each case runs one infer-mode forward of the first `batch` of 256 seeded
122-column rows through a paper-width model (levels 64, 128, 256) with
random biases, so that no bias add is a no-op. `test_golden_infer.py`
compares the probabilities with the file bit for bit.

A change that alters these bits on purpose says so in CHANGES.md and
rewrites the file with

    PYTHONPATH=src python tests/golden_infer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from lunet.model import LuNetSpec, build
from lunet.tensor import Rng

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_infer.npz"
CLASSES = (2, 5)
BATCHES = (1, 2, 3, 37, 64, 256)


def infer_model(num_classes: int):
    """An infer-mode paper-width model whose biases are all random."""
    model = build(LuNetSpec(input_features=122, num_classes=num_classes, init_seed=1))
    for _, _, pname, value in model.named_params():
        if pname in ("b", "bias"):
            value[...] = Rng(value.size).normal(value.shape)
    model.set_mode("infer")
    return model


def cases():
    """Yield (case name, probabilities) for every class count and batch."""
    x = Rng(12).normal((max(BATCHES), 122))
    for classes in CLASSES:
        model = infer_model(classes)
        for batch in BATCHES:
            yield f"classes{classes}_batch{batch}", model.forward(x[:batch])


def first_mismatch() -> str | None:
    """The name of the first case whose probabilities are not bitwise the
    golden ones, with what differs; None if all match."""
    with np.load(GOLDEN) as golden:
        want = dict(golden)
    got = dict(cases())
    if want.keys() != got.keys():
        return f"{sorted(want.keys() ^ got.keys())}: in only one of {GOLDEN.name} and cases()"
    for name, probs in got.items():
        if probs.shape != want[name].shape:
            return f"{name}: shape {probs.shape}, golden {want[name].shape}"
        if probs.tobytes() != want[name].tobytes():
            return f"{name}: {np.count_nonzero(probs != want[name])} values differ"
    return None


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        mismatch = first_mismatch()
        print(mismatch or "ok")
        sys.exit(0 if mismatch is None else 1)
    np.savez(GOLDEN, **dict(cases()))
    print(f"wrote {GOLDEN}")
