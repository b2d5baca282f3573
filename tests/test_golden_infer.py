"""Paper-width infer probabilities, bit for bit against
`tests/data/golden_infer.npz` (written by `tests/golden_infer.py`), in this
process and in subprocesses at one and two BLAS threads. At one BLAS thread
a host with a second CPU shares a call's blocks of rows with the
`lunet-grads` worker; at two the calling thread runs them all."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_infer import first_mismatch

TESTS = Path(__file__).resolve().parent


def test_probabilities_match_the_golden_bits():
    mismatch = first_mismatch()
    assert mismatch is None, f"first differing case: {mismatch}"


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_probabilities_match_the_golden_bits_at_a_blas_thread_count(blas_threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, str(TESTS / "golden_infer.py"), "--check"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"first differing case: {proc.stdout}{proc.stderr}"
