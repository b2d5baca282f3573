"""Set-up time of a fresh process, for the benchmark's `setup_s`.

    python3 bench/probe.py <workload> <workdir>

Times `import lunet`, building or loading the model and one warm-up batch on
the files the benchmark wrote to <workdir>, and prints the seconds taken.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(workload: str, workdir: Path) -> float:
    import json

    import numpy as np

    if workload == "train-paper":
        from lunet import model, train
        with open(workdir / "spec.json", encoding="utf-8") as fh:
            spec = model.LuNetSpec.from_mapping(json.load(fh))
        m = model.build(spec)
        x, y = np.load(workdir / "warmup_x.npy"), np.load(workdir / "warmup_y.npy")
        train.fit(m, x, y, train.TrainConfig(epochs=1, batch_size=len(x)))
    elif workload == "evaluate-nslkdd":
        from lunet import checkpoint
        m = checkpoint.load_checkpoint(workdir / "model.lunet")[0]
        m.predict_class(np.load(workdir / "warmup_x.npy"))
    elif workload == "ingest-nslkdd":
        from lunet import data
        data.prepare_dataset(data.load_csv(workdir / "warmup.csv", data.NSL_KDD), "binary")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(main(sys.argv[1], Path(sys.argv[2])))
