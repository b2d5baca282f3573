"""Golden command line runs: the stdout and `report.jsonl` of two seeded
synthetic runs, compared byte for byte with the files in
`tests/data/golden_cli/`.

They pin the epoch lines, the report records and the table. A change meant to
alter those bytes rewrites the files from the same commands and says why.
Each run is also made in a subprocess at one BLAS thread, where a host with a
second CPU hands layer products to the `lunet-grads` worker, and must give
the same bytes.
"""

from pathlib import Path

import pytest

from blas_subprocess import run_python
from lunet.cli import EXIT_OK, main

TESTS = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS / "data" / "golden_cli"

COMMANDS = {
    "train": ["train", "--dataset", "synthetic", "--task", "multi", "--levels", "4,8",
              "--epochs", "2", "--seed", "3"],
    "crossval": ["crossval", "--dataset", "synthetic", "--task", "multi", "--levels", "4",
                 "--epochs", "2", "--folds", "3", "--seed", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_report_match_the_golden_bytes(tmp_path, capsys, name):
    assert main([*COMMANDS[name], "--output-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.stdout").read_bytes()
    assert ((tmp_path / "report.jsonl").read_bytes()
            == (GOLDEN_DIR / f"{name}.report.jsonl").read_bytes())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_one_blas_thread_gives_the_golden_bytes(tmp_path, name):
    proc = run_python("-m", "lunet.cli", *COMMANDS[name], "--output-dir", str(tmp_path),
                      blas_threads=1, text=False)
    assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout == (GOLDEN_DIR / f"{name}.stdout").read_bytes()
    assert ((tmp_path / "report.jsonl").read_bytes()
            == (GOLDEN_DIR / f"{name}.report.jsonl").read_bytes())
