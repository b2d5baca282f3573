"""lunet's benchmark: one seeded workload per run, against `src/lunet`.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 15 --trace 0

Workloads: train-paper, evaluate-nslkdd, ingest-nslkdd (see bench/README.md).
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
the same workload with spans around every call into lunet and reports the
per-layer metrics. Human-readable lines come first; the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record (environment, checks, every metric) goes to
.bench_out/result-<workload>-seed<seed>-trace<0|1>.json and, for a traced run,
the spans to .bench_out/trace-<workload>-seed<seed>.json.
"""

import os

# BLAS threads are pinned before numpy loads; set-up probes inherit this
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-paper", "evaluate-nslkdd", "ingest-nslkdd")
# the workload-specific names each end-to-end metric also goes by
ALIASES = {"train-paper": "train_samples_per_s", "evaluate-nslkdd": "eval_rows_per_s",
           "ingest-nslkdd": "ingest_rows_per_s"}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name", ""), "blas_version": blas.get("version", ""),
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: narrow levels and few rows, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lunet" / "__init__.py").is_file():
        print(f"bench: no lunet sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            workloads.SCALES[args.scale], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["peak_rss_mb"] = peak_rss_mb
    wl, metrics = res["workload"], res["metrics"]
    attempted, failed = res["attempted"], res["failed"]
    print("environment " + json.dumps(env, sort_keys=True))

    checks = wl.checks.results
    for name, c in sorted(checks.items()):
        status = "PASS" if c["fail"] == 0 else "FAIL"
        print(f"check {name}: {status} ({c['pass']} passed, {c['fail']} failed)"
              + (f" {c['detail']}" if c["fail"] else ""))
    correct = all(c["fail"] == 0 for c in checks.values()) and failed == 0

    if args.trace:
        units = {name: workloads.unit_of(name) for name in metrics}
        if getattr(wl, "accounting", None):
            a = wl.accounting
            parts = {k: v for k, v in a.items() if k != "step_ms"}
            print(f"trace accounting: train.step_ms {a['step_ms']:.3f} vs "
                  f"sum of parts {sum(parts.values()):.3f} ("
                  + ", ".join(f"{k} {v:.3f}" for k, v in parts.items()) + ")")
    else:
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {"setup_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MiB"}
        extra = {ALIASES[args.workload]: (metrics["rows_per_s"], "rows/s"),
                 "ops_failed_frac": (failed / attempted, "fraction"), **wl.info()}
        for name, (value, unit) in extra.items():
            print(f"metric {name} = {value:.6g} {unit}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")

    tag = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env,
              "checks": checks, "correct": correct, "attempted": attempted,
              "failed": failed, "op_walls_s": [o.wall for o in res["ops"]],
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    if not args.trace:
        record["setup_samples_s"] = res["setup_samples"]
        record["info"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if res["tracer"] is not None:
        res["tracer"].write(OUT_DIR / f"trace-{tag}.json")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
