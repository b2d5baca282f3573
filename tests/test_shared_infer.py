"""Where the `lunet-grads` worker can pay (`layers.QUEUE_PRODUCTS`) and an
infer forward has more than one block, the calling thread and the worker
take its blocks from one queue, each running whole blocks through the layer
stack; a call of 16 to 2 x INFER_CHUNK rows is cut into two blocks, larger
ones into blocks of INFER_CHUNK rows and what is left, and no layer hands the
worker a job of its own. The probabilities must be bitwise those of an
all-inline forward; a wrapper on a layer instance's `forward` sees the
calling thread alone; a block that raises on the worker raises on the
calling thread once both have stopped; and no job is left on the worker when
the forward returns."""

import os
import sys
import threading

import numpy as np
import pytest

from blas_subprocess import run_python
from golden_infer import infer_model
from lunet import layers, model as model_mod
from lunet.layers import (LSTM, BatchNorm, Conv1D, Dense, Dropout, GlobalAvgPool, MaxPool1D,
                          ReLU)
from lunet.model import INFER_CHUNK
from lunet.tensor import Rng

BATCHES = (1, 2, 5, 6, 7, 8, 9, 16, 24, 31, 32, 33, 34, 48, 63, 64, 65, 66, 97, 127, 128, 129,
           130, 191, 192, 193, 194, 1024)


def shared_mismatch() -> str | None:
    """The first (classes, rows) case where a forward with blocks on both
    threads is not bitwise the same rows of one all-inline forward over
    `max(BATCHES)` rows; None if all match. The inline forward is
    batch-invariant (`infer_blocks.py` checks it), so one pass per class
    count serves every batch."""
    x = Rng(12).normal((max(BATCHES), 122))
    queue = layers.QUEUE_PRODUCTS
    try:
        for classes in (2, 5):
            model = infer_model(classes)
            layers.QUEUE_PRODUCTS = False
            inline = model.forward(x)
            layers.QUEUE_PRODUCTS = True
            for rows in BATCHES:
                shared = model.forward(x[:rows])
                if shared.tobytes() != inline[:rows].tobytes():
                    return (f"classes {classes}, {rows} rows: "
                            f"{np.count_nonzero(shared != inline[:rows])} values differ")
    finally:
        layers.QUEUE_PRODUCTS = queue
    return None


def test_blocks_of_infer_chunk_rows_are_shared_where_there_are_two(monkeypatch):
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    model, x = infer_model(2), Rng(7).normal((257, 122))
    taken, handed, class_forward, start = [], [], Conv1D.forward, layers._start

    def first_layer(self, block, mode="train"):
        # the first layer's input is a view of rows [first, first + len) of x
        if self is model.layers[0]:
            first = (block.ctypes.data - x.ctypes.data) // x.strides[0]
            taken.append((threading.current_thread().name, (first, first + len(block))))
        return class_forward(self, block, mode=mode)

    def counting(fn):
        handed.append(fn)
        return start(fn)

    monkeypatch.setattr(Conv1D, "forward", first_layer)
    monkeypatch.setattr(layers, "_start", counting)
    blocks, shared = [], []
    for rows in (1, 5, 15, 16, 64, 65, 66, 129, 130):
        del taken[:], handed[:]
        model.forward(x[:rows])
        blocks.append((rows, sorted(block for _, block in taken)))
        if handed:
            shared.append(rows)
        else:
            assert {name for name, _ in taken} == {threading.current_thread().name}
    # 16 to 2 x INFER_CHUNK rows make two blocks, the first of half the rows
    # rounded up, fewer make one; larger calls make blocks of INFER_CHUNK
    # rows and what is left; the worker joins only where there are two
    assert blocks == [(1, [(0, 1)]), (5, [(0, 5)]), (15, [(0, 15)]), (16, [(0, 8), (8, 16)]),
                      (64, [(0, 32), (32, 64)]), (65, [(0, 33), (33, 65)]),
                      (66, [(0, 33), (33, 66)]), (129, [(0, 64), (64, 128), (128, 129)]),
                      (130, [(0, 64), (64, 128), (128, 130)])]
    assert shared == [16, 64, 65, 66, 129, 130]
    # the calling thread's blocks, as an instance wrapper sees them (as
    # bench/spans.py's Tracer.wrap does): whole blocks of INFER_CHUNK rows,
    # and the one-row last one
    rows_seen, conv_forward = [], model.layers[0].forward

    def wrapper(x, mode="train"):
        rows_seen.append(len(x))
        return conv_forward(x, mode=mode)

    model.layers[0].forward = wrapper
    model.forward(x)
    assert rows_seen and set(rows_seen) <= {INFER_CHUNK, 1}


@pytest.mark.parametrize("rows", [1, 5, 8, 9, 15, 16, 32, 64, 65, 66, 129, 1024])
def test_infer_forward_hands_the_worker_its_blocks_alone(monkeypatch, rows):
    # the one job an infer forward hands over is the model's block job, for
    # a call of 16 rows or more; no layer hands over a job of its own, on
    # either thread
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    model, x = infer_model(2), Rng(8).normal((rows, 122))
    start, callers = layers._start, []

    def recording(fn):
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("beside", "__enter__"):  # to the one that entered it
            frame = frame.f_back
        callers.append(frame.f_globals["__name__"])
        return start(fn)

    monkeypatch.setattr(layers, "_start", recording)
    model.forward(x)
    assert callers == (["lunet.model"] if rows >= 16 else [])


def test_shared_forward_is_bitwise_an_inline_one():
    mismatch = shared_mismatch()
    assert mismatch is None, f"first differing case: {mismatch}"


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs a process that may run on 2 CPUs")
def test_shared_forward_is_bitwise_an_inline_one_at_one_blas_thread():
    code = ("from lunet import layers\n"
            "from test_shared_infer import shared_mismatch\n"
            "assert layers.QUEUE_PRODUCTS\n"
            "print(shared_mismatch() or 'ok')\n")
    proc = run_python("-c", code, blas_threads=1, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def spy_on_classes(monkeypatch, spy) -> list:
    """Replace the class `forward` of every layer kind with a hook that
    calls `spy(layer)` and then the original, as the worker calls them; the
    list returned holds how many such calls are in flight."""
    in_flight, lock = [0], threading.Lock()

    for cls in (Conv1D, ReLU, MaxPool1D, BatchNorm, LSTM, Dropout, GlobalAvgPool, Dense):
        original = cls.forward

        def forward(self, x, mode="train", original=original):
            with lock:
                in_flight[0] += 1
            try:
                spy(self)
                return original(self, x, mode=mode)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(cls, "forward", forward)
    return in_flight


def on_worker() -> bool:
    return threading.current_thread().name == "lunet-grads"


def wait_for_the_worker(monkeypatch, fail_in=None, fail_on_worker=True) -> list:
    """Hold the calling thread's first block until the worker has entered
    one of its own, so that both threads run blocks; the worker (or the
    calling thread) raises ArithmeticError in a layer of kind `fail_in`.
    Returns the count of layer calls in flight."""
    entered = threading.Event()

    def spy(layer):
        if on_worker():
            entered.set()
        else:
            assert entered.wait(timeout=60)
        if fail_in is not None and isinstance(layer, fail_in) and on_worker() == fail_on_worker:
            raise ArithmeticError("block failed")

    return spy_on_classes(monkeypatch, spy)


def test_instance_wrappers_see_the_calling_thread_alone(monkeypatch):
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    model, x = infer_model(2), Rng(5).normal((512, 122))
    want = infer_model(2).forward(x)
    wait_for_the_worker(monkeypatch)
    seen = []
    for layer in model.layers:  # as bench/spans.py's Tracer.wrap does
        original = layer.forward

        def wrapper(*args, original=original, **kwargs):
            seen.append(threading.get_ident())
            return original(*args, **kwargs)

        setattr(layer, "forward", wrapper)
    got = model.predict_class(x)
    assert set(seen) == {threading.get_ident()}
    # the calling thread ran some of the 8 blocks, not all of them
    assert 0 < len(seen) < 8 * len(model.layers)
    np.testing.assert_array_equal(got, np.argmax(want, axis=1))


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker-fails", "caller-fails"])
def test_block_error_is_raised_on_the_calling_thread(monkeypatch, on_worker):
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    model, x = infer_model(2), Rng(5).normal((512, 122))
    want = model.forward(x)
    in_flight = wait_for_the_worker(monkeypatch, fail_in=LSTM, fail_on_worker=on_worker)
    heads, dense_forward = [], Dense.forward

    def head(self, x, mode="train"):
        heads.append(threading.current_thread().name)
        return dense_forward(self, x, mode=mode)

    monkeypatch.setattr(Dense, "forward", head)
    with pytest.raises(ArithmeticError, match="block failed"):
        model.predict_class(x)
    # both threads stopped before the error reached this one
    assert in_flight[0] == 0
    assert layers._grad_worker.pool._work_queue.empty()
    # the failure emptied the queue: the other thread did not run the rest
    # of the 8 blocks
    assert len(heads) < 7
    monkeypatch.undo()
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    np.testing.assert_array_equal(model.forward(x), want)
    assert [t.name for t in threading.enumerate()].count("lunet-grads") == 1


def test_no_job_is_left_on_the_worker(monkeypatch):
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    model, x = infer_model(2), Rng(5).normal((256, 122))
    wait_for_the_worker(monkeypatch)
    start, queued = layers._start, []

    def recording(fn):
        queued.append(start(fn))
        return queued[-1]

    monkeypatch.setattr(layers, "_start", recording)
    model.predict_class(x)
    # the one block job: no layer hands the worker a job in infer mode
    assert len(queued) == 1 and queued[0].done()
    assert layers._grad_worker.pool._work_queue.empty()


def test_many_threads_sharing_blocks_get_the_inline_bits(monkeypatch):
    # each thread's forward queues a block job on the one worker, which runs
    # them one at a time; a thread whose job the worker has not started
    # takes every block itself and then runs the job, which finds none left
    spec = model_mod.LuNetSpec(input_features=40, num_classes=2, levels=(8, 16))
    x = Rng(3).normal((100, 40))  # two blocks of 50 rows

    def small_model():
        model = model_mod.build(spec)
        model.set_mode("infer")
        return model

    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", False)
    want = small_model().forward(x)
    monkeypatch.setattr(layers, "QUEUE_PRODUCTS", True)
    seen = []

    def forwards():
        model = small_model()
        seen.extend(np.array_equal(model.forward(x), want) for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=forwards)
                   for _ in range(2 * (os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 20 * len(threads) and all(seen)
    assert layers._grad_worker.pool._work_queue.empty()
