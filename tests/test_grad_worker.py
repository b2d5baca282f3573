"""The `lunet-grads` worker: where BLAS runs one thread on a host with a
second CPU, a train-mode `Conv1D` and `LSTM` forward hand half their batch
rows or their next block of input products to it and wait for them, also
when their own thread raises, and their backward queues the
weight-gradient products on it, which reading `grads` waits for; an
infer-mode model forward shares its blocks of rows with it; encoding and
standardizing a table of at least 2 x BLOCK_BYTES hand it the second half
of the rows. Inference and training with the worker must be bitwise what
inline passes give, at any BLAS thread count, and a job runs under the numpy
error state of the thread that submitted it."""

import concurrent.futures
import hashlib
import json
import os
import sys
import threading
import time
import warnings
from textwrap import dedent

import numpy as np
import pytest

from blas_subprocess import run_python
from lunet import layers
from lunet.cli import EXIT_OK, main
from lunet.data import apply_standardization
from lunet.layers import LSTM, Conv1D, Layer
from lunet.model import LuNetSpec, build
from lunet.tensor import Rng
from lunet.train import RmsProp, cross_entropy_delta, iter_batches, one_hot, TrainConfig


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


def late_jobs(monkeypatch) -> list:
    """Make `_start` hand the worker each job to start 0.3 s late; the list
    returned holds the futures of the jobs it handed over."""
    start, futures = layers._start, []

    def late(fn):
        def job():
            time.sleep(0.3)
            fn()

        futures.append(start(job))
        return futures[-1]

    monkeypatch.setattr(layers, "_start", late)
    return futures


def started(future):
    """`future` once the worker has run it, so that no thread can cancel it
    and run its job instead."""
    concurrent.futures.wait([future])
    return future


def paper_width_model(seed: int = 1):
    """An infer-mode paper-width model with random biases, so that no bias
    add is a no-op."""
    model = build(LuNetSpec(input_features=122, num_classes=2, init_seed=seed))
    for _, _, pname, value in model.named_params():
        if pname in ("b", "bias"):
            value[...] = Rng(value.size).normal(value.shape)
    model.set_mode("infer")
    return model


class TestBitwise:
    @pytest.mark.parametrize("batch", [1, 2, 3, 37, 64, 256])
    def test_worker_equals_inline_forward(self, monkeypatch, batch):
        model, x = paper_width_model(), Rng(12).normal((batch, 122))
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        queued = model.forward(x)
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", False)
        np.testing.assert_array_equal(queued, model.forward(x))

    def test_worker_equals_inline_training(self, monkeypatch):
        # forward halves and blocks, and backward products, all queued or all inline
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        queued = train_digests()
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", False)
        assert queued == train_digests()

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
        runs = {n: run_python("-c", dedent(code), blas_threads=n) for n in (1, 2)}
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

    def test_forward_error_surfaces_on_the_calling_thread(self, monkeypatch):
        # a train forward hands the worker conv halves and LSTM products; the
        # first job fails, in the level-0 conv, before any state changes
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        model, fresh, x = paper_width_model(), paper_width_model(), Rng(12).normal((4, 122))
        model.set_mode("train")
        fresh.set_mode("train")
        want = fresh.forward(x)
        start = layers._start

        def fail():
            raise FloatingPointError("forward job failed")

        monkeypatch.setattr(layers, "_start", lambda fn: started(start(fail)))
        with pytest.raises(FloatingPointError, match="forward job failed"):
            model.forward(x)
        # the worker lives on, and the next forward runs and is right
        monkeypatch.setattr(layers, "_start", start)
        np.testing.assert_array_equal(model.forward(x), want)
        assert [t.name for t in threading.enumerate()].count("lunet-grads") == 1

    def test_conv_waits_for_its_half_when_its_own_half_raises(self, monkeypatch):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        futures = late_jobs(monkeypatch)
        x = Rng(3).normal((8, 10, 3))
        x[:4] = 1e308  # the calling thread's half
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            Conv1D(3, 4, 3, Rng(1)).forward(x)
        assert len(futures) == 1 and futures[0].done()

    def test_lstm_waits_for_its_products_when_a_step_raises(self, monkeypatch):
        # one-step blocks: the products of step 1 are handed over before
        # step 0 runs
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1)
        futures = late_jobs(monkeypatch)

        def fail(z, out=None):
            raise ArithmeticError("step failed")

        monkeypatch.setattr(layers, "sigmoid", fail)
        with pytest.raises(ArithmeticError, match="step failed"):
            LSTM(3, 3, Rng(1)).forward(Rng(2).normal((4, 5, 3)))
        assert len(futures) == 1 and futures[0].done()

    def test_table_half_error_surfaces_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        monkeypatch.setattr(layers, "BLOCK_BYTES", 64)
        x = Rng(13).normal((9, 7))
        mean, std = x.mean(axis=0), x.std(axis=0)
        want = apply_standardization(x, mean, std)
        start, halves = layers._start, []

        def fail(fn):
            halves.append(fn)

            def job():
                raise ValueError("table half failed")
            return started(start(job))

        monkeypatch.setattr(layers, "_start", fail)
        with pytest.raises(ValueError, match="table half failed"):
            apply_standardization(x, mean, std)
        assert len(halves) == 1
        # the worker lives on, and the next call runs and is right
        monkeypatch.setattr(layers, "_start", start)
        np.testing.assert_array_equal(apply_standardization(x, mean, std), want)
        assert [t.name for t in threading.enumerate()].count("lunet-grads") == 1

    def test_worker_job_runs_under_the_callers_error_state(self, monkeypatch):
        # numpy keeps its error state per thread (1.x) or per context (2.x),
        # so a job must carry the submitting thread's state to the worker
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        ran_on = []

        def overflow():
            ran_on.append(threading.current_thread().name)
            return np.full(2, 1e308) * 10.0

        def run_on_worker():
            layers._start(overflow).result()

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # process-wide
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                run_on_worker()
            with np.errstate(over="warn"), pytest.raises(RuntimeWarning, match="overflow"):
                run_on_worker()
            with np.errstate(over="ignore"):
                run_on_worker()
        assert ran_on == ["lunet-grads"] * 3

    def test_table_half_runs_under_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(layers, "BLOCK_BYTES", 64)
        x = np.ones((9, 4))
        x[-1, 0] = 1e300  # in the worker's half
        mean, std = np.zeros(4), np.full(4, 1e-10)
        for queue in (True, False):
            monkeypatch.setattr(layers, "QUEUE_PRODUCTS", queue)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                apply_standardization(x, mean, std)
            with np.errstate(over="ignore"):
                out = apply_standardization(x, mean, std)
            assert out[-1, 0] == np.inf and np.isfinite(out[:-1]).all()

    def test_beside_runs_a_job_the_worker_has_not_started(self, monkeypatch):
        # a forward does not wait behind a busy worker: its own job runs here
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        release, ran_on = threading.Event(), []
        with layers.beside(lambda: release.wait(timeout=60)):
            with layers.beside(lambda: ran_on.append(threading.current_thread().name)):
                pass
            release.set()
        assert ran_on == [threading.current_thread().name]

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
        proc = run_python("-c", dedent(f"""
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
        """), blas_threads=blas_threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['MainThread']"

    def test_many_forwarding_threads_get_the_inline_bits(self, monkeypatch):
        # each thread's train forward hands jobs to the one worker or runs
        # them itself at its join, in whatever interleaving the switches give;
        # one-step LSTM blocks make a job per step. Each forward is a fresh
        # model's, so that dropout draws the same mask every time
        monkeypatch.setattr(layers, "BLOCK_BYTES", 1)
        spec = LuNetSpec(input_features=40, num_classes=2, levels=(8, 16))
        x = Rng(3).normal((9, 40))

        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", False)
        want = build(spec).forward(x)
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
        seen = []

        def forwards():
            seen.extend(np.array_equal(build(spec).forward(x), want) for _ in range(20))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=forwards)
                       for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 20 * len(threads) and all(seen)

    @pytest.mark.parametrize("blas_threads, cpus, workers", [
        pytest.param(1, "all", 1, id="blas1-all-cpus"),
        pytest.param(2, "all", 0, id="blas2-all-cpus"),
        pytest.param(1, "one", 0, id="blas1-one-cpu"),
    ])
    def test_inference_starts_a_thread_only_where_it_pays(self, tmp_path, blas_threads, cpus,
                                                          workers):
        if cpus == "one" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("cannot pin the process to one CPU here")
        if cpus == "all" and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
            pytest.skip("needs a process that may run on 2 CPUs")
        ckpt = tmp_path / "model.lunet"
        argv = ["--dataset", "synthetic", "--levels", "4", "--seed", "2",
                "--output-dir", str(tmp_path)]
        assert main(["train", *argv, "--epochs", "1", "--checkpoint", str(ckpt)]) == EXIT_OK
        proc = run_python("-c", dedent(f"""
            import os, threading
            if {cpus!r} == "one":
                os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            import numpy as np
            from lunet.cli import main
            from lunet.model import LuNetSpec, build
            m = build(LuNetSpec(input_features=16, num_classes=2, levels=(4,)))
            m.predict_class(np.zeros((3, 16)))
            assert main(["evaluate", *{argv!r}, "--checkpoint", {str(ckpt)!r}]) == 0
            print(sorted(t.name for t in threading.enumerate()))
        """), blas_threads=blas_threads)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(["MainThread"] + ["lunet-grads"] * workers)

    def test_crossval_starts_one_thread(self, tmp_path):
        proc = run_python("-c", dedent(f"""
            import threading
            from lunet.cli import main
            assert main(["crossval", "--dataset", "synthetic", "--levels", "4",
                         "--folds", "3", "--epochs", "1",
                         "--output-dir", {str(tmp_path)!r}]) == 0
            print(sorted(t.name for t in threading.enumerate()))
        """), blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['MainThread', 'lunet-grads']"

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs a process that may run on 2 CPUs")
    def test_only_a_table_of_two_blocks_starts_the_worker(self):
        # encode and standardize split a table that holds 2 x BLOCK_BYTES;
        # a smaller one, such as evaluate's, runs on the calling thread alone
        proc = run_python("-c", dedent("""
            import threading
            import numpy as np
            from lunet import data, layers

            def encode_and_standardize(n):
                columns = {name: np.arange(n, dtype=float) if kind == data.NUMERIC
                           else (["v0", "v1", "v2"], np.arange(n) % 3)
                           for name, kind in data.NSL_KDD.feature_columns}
                raw = data.RawTable(data.NSL_KDD, columns, (["normal"], np.zeros(n, int)))
                features, _ = data.encode_categorical(raw)
                mean, std = data.fit_standardization(features, np.arange(n))
                data.apply_standardization(features, mean, std)
                return features.nbytes / (2 * layers.BLOCK_BYTES)

            for n in (1024, 6000):
                share = encode_and_standardize(n)
                print(round(share, 2), sorted(t.name for t in threading.enumerate()))
        """), blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["0.18 ['MainThread']",
                                                 "1.08 ['MainThread', 'lunet-grads']"]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs a process that may run on 2 CPUs")
    def test_worker_is_kept_off_the_queueing_threads_cpu(self):
        # the queueing thread is pinned to each CPU in turn; the worker pins
        # itself off that CPU when it runs the next job queued from there
        proc = run_python("-c", dedent("""
            import os, threading
            import numpy as np
            from lunet import layers
            layer = layers.Layer("probe")
            layer.add_param("w", np.zeros(1))
            layer._defer(lambda: None)
            layer.grads
            cpus = os.sched_getaffinity(0)
            assert layers._current_cpu() in cpus
            assert layers._grad_worker.avoided in cpus
            worker, = [t for t in threading.enumerate() if t.name == "lunet-grads"]
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                assert layers._current_cpu() == cpu
                layer._defer(lambda: None)
                layer.grads
                assert os.sched_getaffinity(worker.native_id) == cpus - {cpu}
            os.sched_setaffinity(0, cpus)
            print("ok")
        """), blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_importing_lunet_loads_no_executor_module(self):
        # concurrent.futures loads logging: start-up time that runs which
        # never queue a product (such as a data ingest) would pay
        proc = run_python("-c", dedent("""
            import sys
            import lunet.cli
            print("concurrent.futures" in sys.modules)
        """), blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_forked_child_trains_with_its_own_worker(self):
        proc = run_python("-c", dedent("""
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
        """), blas_threads=1)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0"
