"""An infer-mode forward is batch-invariant: each row's probabilities are
bitwise the same rows of one pass over all rows, whatever rows share its
call (`infer_blocks.py`), here and in subprocesses at one and two BLAS
threads. It runs its rows in blocks of `INFER_CHUNK`, so the traced peak of
a prediction does not grow with its row count."""

import os
import tracemalloc
from pathlib import Path

import pytest

from blas_subprocess import run_python
from golden_infer import infer_model
from infer_blocks import first_mismatch
from lunet.model import INFER_CHUNK
from lunet.tensor import Rng

TESTS = Path(__file__).resolve().parent


@pytest.mark.slow
def test_forward_is_bitwise_one_pass_over_all_rows():
    mismatch = first_mismatch()
    assert mismatch is None, f"first differing case: {mismatch}"


@pytest.mark.slow
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_forward_is_bitwise_one_pass_at_a_blas_thread_count(blas_threads):
    proc = run_python(str(TESTS / "infer_blocks.py"), blas_threads=blas_threads, timeout=600)
    assert proc.returncode == 0, f"first differing case: {proc.stdout}{proc.stderr}"


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prediction_peak_does_not_grow_with_the_rows():
    # one pass over 4,096 rows would hold about 360 MiB of activations
    model, x = infer_model(2), Rng(4096).normal((4096, 122))
    one_block = traced_peak(lambda: model.forward(x[:INFER_CHUNK]))
    all_rows = traced_peak(lambda: model.predict_class(x))
    assert all_rows <= 2 * one_block, f"{all_rows} bytes against {one_block} for one block"


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs a process that may run on 2 CPUs")
def test_prediction_peak_does_not_grow_with_the_rows_at_one_blas_thread():
    # the worker is on there, so the calling thread and the worker each hold
    # a block of their own
    code = ("from lunet import layers\n"
            "from test_infer_blocks import test_prediction_peak_does_not_grow_with_the_rows\n"
            "assert layers.QUEUE_PRODUCTS\n"
            "test_prediction_peak_does_not_grow_with_the_rows()\n")
    proc = run_python("-c", code, blas_threads=1, timeout=600)
    assert proc.returncode == 0, proc.stderr
