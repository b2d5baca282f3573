"""Paper-width training bits against `tests/data/golden_train.npz` (written
by `tests/golden_train.py`): every gradient of 3 train steps, every
parameter, batch-norm statistic and RMSprop accumulator after them, and the
finite-difference gradient suite, in this process and in subprocesses at one
and two BLAS threads. At one BLAS thread a host with a second CPU hands conv
rows, LSTM input products and weight-gradient products to the `lunet-grads`
worker; at two it runs them inline."""

from pathlib import Path

import pytest

from blas_subprocess import run_python
from golden_train import first_mismatch

TESTS = Path(__file__).resolve().parent


def test_training_matches_the_golden_bits():
    mismatch = first_mismatch()
    assert mismatch is None, f"first differing tensor: {mismatch}"


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_training_matches_the_golden_bits_at_a_blas_thread_count(blas_threads):
    proc = run_python(str(TESTS / "golden_train.py"), "--check", blas_threads=blas_threads)
    assert proc.returncode == 0, f"first differing tensor: {proc.stdout}{proc.stderr}"
