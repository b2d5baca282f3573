"""The weight-gradient worker: where BLAS runs one thread on a host with a
second CPU, `Conv1D` and `LSTM` backward queue their weight-gradient products
on the `lunet-grads` thread, and reading `grads` waits for them. Training
with the worker must be bitwise what an inline backward gives, at any BLAS
thread count."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from lunet import layers
from lunet.cli import EXIT_OK, main
from lunet.layers import Layer
from lunet.model import LuNetSpec, build
from lunet.tensor import Rng
from lunet.train import RmsProp, cross_entropy_delta, iter_batches, one_hot, TrainConfig

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def train_digests(steps: int = 3, batch: int = 32) -> dict[str, str]:
    """SHA-256 of every gradient after each of `steps` paper-width train
    steps, and of every parameter, batch-norm statistic and RMSprop
    accumulator after the last."""
    model = build(LuNetSpec(input_features=122, num_classes=2, init_seed=5))
    x = Rng(8).normal((steps * batch, 122))
    y = (Rng(9).uniform((steps * batch,)) > 0.5).astype(int)
    opt = RmsProp()
    out = {}

    def digest(name, value):
        out[name] = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()

    for step, rows in enumerate(iter_batches(len(x), TrainConfig(batch_size=batch), 0)):
        probs = model.forward(x[rows])
        model.backward(cross_entropy_delta(probs, one_hot(y[rows], 2)))
        for name, layer, pname, _ in model.named_params():
            digest(f"step{step}.grad.{name}", layer.grads[pname])
        opt.step(model)
    for name, _, _, value in model.named_params():
        digest(f"param.{name}", value)
    for name, value in model.named_state():
        digest(f"state.{name}", value)
    for name, acc in opt._acc.items():
        digest(f"rmsprop.{name}", acc)
    return out


def run_python(code: str, blas_threads: int | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS), env.get("PYTHONPATH", "")])
    if blas_threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)


class TestBitwise:
    def test_worker_equals_inline_backward(self, monkeypatch):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        queued = train_digests()
        monkeypatch.setattr(Layer, "_defer", lambda self, fn: fn())
        inline = train_digests()
        # 25 parameters (gradients at 3 steps, values, accumulators), 6 BN statistics
        assert len(queued) == 3 * 25 + 25 + 25 + 6
        assert queued == inline

    def test_blas_thread_count_does_not_change_a_bit(self):
        # at 1 BLAS thread the products are queued, at 2 they run inline
        code = """
            import json
            from test_grad_worker import train_digests
            print(json.dumps(train_digests()))
        """
        runs = {n: run_python(code, blas_threads=n) for n in (1, 2)}
        for n, proc in runs.items():
            assert proc.returncode == 0, f"BLAS {n} threads: {proc.stderr}"
        one, two = (json.loads(runs[n].stdout) for n in (1, 2))
        assert [k for k in one if one[k] != two.get(k)] == []
        assert one == train_digests()


class TestWorker:
    def test_error_surfaces_at_the_next_grads_read(self, monkeypatch):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        layer = Layer("probe")
        layer.add_param("w", np.zeros(3))

        def fail():
            raise ArithmeticError("queued job failed")

        def add():
            layer._grads["w"] += 1.0

        layer._defer(fail)
        layer._defer(add)
        with pytest.raises(ArithmeticError, match="queued job failed"):
            layer.grads
        # reported once; the job queued after the failure still ran
        np.testing.assert_array_equal(layer.grads["w"], 1.0)
        layer._defer(add)
        np.testing.assert_array_equal(layer.grads["w"], 2.0)

    def test_many_queueing_threads_lose_no_update(self, monkeypatch):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        probes = [Layer(f"probe{i}") for i in range(2 * (os.cpu_count() or 1) + 2)]
        for layer in probes:
            layer.add_param("w", np.zeros(64))

        seen = []

        def queue_adds(layer):
            def add():
                layer._grads["w"] += 1.0

            for rnd in range(1, 21):
                for _ in range(10):
                    layer._defer(add)
                seen.append((layer.grads["w"] == 10.0 * rnd).all())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=queue_adds, args=(p,)) for p in probes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == 20 * len(probes) and all(seen)
        finally:
            sys.setswitchinterval(interval)
        assert [t.name for t in threading.enumerate()].count("lunet-grads") == 1

    @pytest.mark.parametrize("blas_threads, cpus", [(2, "all"), (1, "one")])
    def test_no_thread_where_it_cannot_pay(self, blas_threads, cpus):
        if cpus == "one" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("cannot pin the process to one CPU here")
        proc = run_python(f"""
            import os, threading
            if {cpus!r} == "one":
                os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            import numpy as np
            from lunet.model import LuNetSpec, build
            from lunet.tensor import Rng
            from lunet.train import TrainConfig, fit
            m = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
            fit(m, Rng(1).normal((8, 16)), np.array([0, 1] * 4), TrainConfig(epochs=1, batch_size=4))
            print([t.name for t in threading.enumerate()])
        """, blas_threads=blas_threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['MainThread']"

    def test_inference_starts_no_thread(self, tmp_path):
        ckpt = tmp_path / "model.lunet"
        argv = ["--dataset", "synthetic", "--levels", "4", "--seed", "2",
                "--output-dir", str(tmp_path)]
        assert main(["train", *argv, "--epochs", "1", "--checkpoint", str(ckpt)]) == EXIT_OK
        proc = run_python(f"""
            import threading
            import numpy as np
            from lunet.cli import main
            from lunet.model import LuNetSpec, build
            m = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
            m.predict_class(np.zeros((3, 16)))
            assert main(["evaluate", *{argv!r}, "--checkpoint", {str(ckpt)!r}]) == 0
            print([t.name for t in threading.enumerate()])
        """, blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['MainThread']"

    def test_crossval_starts_one_thread(self, tmp_path):
        proc = run_python(f"""
            import threading
            from lunet.cli import main
            assert main(["crossval", "--dataset", "synthetic", "--levels", "4",
                         "--folds", "3", "--epochs", "1",
                         "--output-dir", {str(tmp_path)!r}]) == 0
            print(sorted(t.name for t in threading.enumerate()))
        """, blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['MainThread', 'lunet-grads']"

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs a process that may run on 2 CPUs")
    def test_worker_is_kept_off_the_queueing_threads_cpu(self):
        proc = run_python("""
            import os
            import numpy as np
            from lunet import layers
            layer = layers.Layer("probe")
            layer.add_param("w", np.zeros(1))
            layer._defer(lambda: None)
            layer.grads
            cpus, worker = os.sched_getaffinity(0), layers._grad_worker
            assert layers._current_cpu() in cpus
            assert worker.avoided in cpus
            for cpu in sorted(cpus):
                worker.keep_off(cpu)
                assert os.sched_getaffinity(worker.thread.native_id) == cpus - {cpu}
            print("ok")
        """, blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_forked_child_trains_with_its_own_worker(self):
        proc = run_python("""
            import os, threading
            import numpy as np
            from lunet import layers
            from lunet.model import LuNetSpec, build
            from lunet.tensor import Rng
            from lunet.train import TrainConfig, fit

            def train():
                m = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
                fit(m, Rng(1).normal((8, 16)), np.array([0, 1] * 4),
                    TrainConfig(epochs=1, batch_size=4))

            train()
            parent_worker = layers._grad_worker
            assert parent_worker is not None
            pid = os.fork()
            if pid == 0:
                train()
                names = [t.name for t in threading.enumerate()]
                ok = (layers._grad_worker is not parent_worker
                      and layers._grad_worker.pid == os.getpid()
                      and names.count("lunet-grads") == 1)
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            print(os.waitstatus_to_exitcode(status))
        """, blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0"
