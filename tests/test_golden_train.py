"""Paper-width training bits against `tests/data/golden_train.npz` (written
by `tests/golden_train.py`): every gradient of 3 train steps, every
parameter, batch-norm statistic and RMSprop accumulator after them, and the
finite-difference gradient suite, in this process and in subprocesses at one
and two BLAS threads. At one BLAS thread a host with a second CPU hands conv
rows, LSTM input products and weight-gradient products to the `lunet-grads`
worker; at two it runs them inline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_train import first_mismatch

TESTS = Path(__file__).resolve().parent


def test_training_matches_the_golden_bits():
    mismatch = first_mismatch()
    assert mismatch is None, f"first differing tensor: {mismatch}"


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_training_matches_the_golden_bits_at_a_blas_thread_count(blas_threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(TESTS / "golden_train.py"), "--check"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"first differing tensor: {proc.stdout}{proc.stderr}"
