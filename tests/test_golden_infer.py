"""Paper-width infer probabilities, bit for bit against
`tests/data/golden_infer.npz` (written by `tests/golden_infer.py`), in this
process and in subprocesses at one and two BLAS threads. At one BLAS thread
a host with a second CPU shares a call's blocks of rows with the
`lunet-grads` worker; at two the calling thread runs them all."""

from pathlib import Path

import pytest

from blas_subprocess import run_python
from golden_infer import first_mismatch

TESTS = Path(__file__).resolve().parent


def test_probabilities_match_the_golden_bits():
    mismatch = first_mismatch()
    assert mismatch is None, f"first differing case: {mismatch}"


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_probabilities_match_the_golden_bits_at_a_blas_thread_count(blas_threads):
    proc = run_python(str(TESTS / "golden_infer.py"), "--check", blas_threads=blas_threads)
    assert proc.returncode == 0, f"first differing case: {proc.stdout}{proc.stderr}"
