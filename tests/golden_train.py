"""Paper-width training bits, pinned in `tests/data/golden_train.npz`.

The file holds the SHA-256 of every gradient after each of 3 paper-width
train steps at batch 32, and of every parameter, batch-norm statistic and
RMSprop accumulator after the last (`test_grad_worker.train_digests`), plus
the 10 finite-difference errors of `standard_gradient_suite()` as float64.
Digests stand in for the about 40 MB of tensors they pin bit for bit.
`test_golden_train.py` compares them with a fresh run.

A change that alters these bits on purpose says so in CHANGES.md and
rewrites the file with

    PYTHONPATH=src python tests/golden_train.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from lunet.train import standard_gradient_suite
from test_grad_worker import train_digests

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_train.npz"


def cases() -> dict[str, np.ndarray]:
    """Every pinned value by name, in the order a run makes them."""
    out = {name: np.array(digest) for name, digest in train_digests().items()}
    out.update((f"gradcheck.{tag}", np.array(err, dtype=np.float64))
               for tag, err in standard_gradient_suite().items())
    return out


def first_mismatch() -> str | None:
    """The name of the first value that is not bitwise the golden one; None
    if all match."""
    with np.load(GOLDEN) as golden:
        want = dict(golden)
    got = cases()
    if want.keys() != got.keys():
        return f"{sorted(want.keys() ^ got.keys())}: in only one of {GOLDEN.name} and cases()"
    for name, value in got.items():
        if value.dtype != want[name].dtype or value.tobytes() != want[name].tobytes():
            return f"{name}: {value} where the golden file has {want[name]}"
    return None


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        mismatch = first_mismatch()
        print(mismatch or "ok")
        sys.exit(0 if mismatch is None else 1)
    np.savez_compressed(GOLDEN, **cases())
    print(f"wrote {GOLDEN}")
