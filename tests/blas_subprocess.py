"""Run Python in a child process at a chosen BLAS thread count, with `src`
and `tests` at the front of its PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def run_python(*args: str, blas_threads: int | None = None, timeout: float = 300,
               text: bool = True) -> subprocess.CompletedProcess:
    """Run `python *args` and return it finished, its output captured (as str
    where `text`, else as bytes). Unless `blas_threads` is None, it runs with
    OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                                         env.get("PYTHONPATH", "")])
    if blas_threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text,
                          timeout=timeout)
