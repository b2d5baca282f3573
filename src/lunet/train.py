"""Loss, RMSprop optimizer, the mini-batch training loop and the
finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Dropout
from .model import LuNetModel
from .tensor import Rng, softmax

LOG_CLAMP = 1e-12
FD_STEP = 1e-5  # central finite-difference step of the gradient checker
RHO = 0.9  # RMSprop's decay of the squared-gradient average
EPSILON = 1e-7  # added to RMSprop's root mean square before it divides


@dataclass
class RmsPropConfig:
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:  # batch-norm needs two rows in train mode
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or np.any(labels < 0) or np.any(labels >= classes):
        raise ValueError("labels must be a 1-D vector of class indices in range")
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy_loss(probs: np.ndarray, labels_onehot: np.ndarray) -> float:
    """Mean over the batch of -sum(y * log(clamp(p, 1e-12, 1)))."""
    if probs.shape != labels_onehot.shape:
        raise ValueError(f"shape mismatch: probs {probs.shape} vs labels {labels_onehot.shape}")
    row_sums = probs.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    is_onehot = (np.all((labels_onehot == 0.0) | (labels_onehot == 1.0))
                 and np.all(labels_onehot.sum(axis=1) == 1.0))
    if not is_onehot:
        raise ValueError("labels must be one-hot rows")
    clamped = np.clip(probs, LOG_CLAMP, 1.0)
    return float(-(labels_onehot * np.log(clamped)).sum(axis=1).mean())


def cross_entropy_delta(probs: np.ndarray, labels_onehot: np.ndarray) -> np.ndarray:
    """Fused softmax + cross-entropy gradient w.r.t. logits: (p - y)/batch."""
    return (probs - labels_onehot) / probs.shape[0]


class RmsProp:
    """acc <- RHO*acc + (1-RHO)*g^2; w <- w - lr*g/(sqrt(acc)+EPSILON).

    A step takes each gradient out of its layer's `grads`, so afterwards no
    layer holds one. A step that leaves a parameter with a non-finite entry
    raises FloatingPointError naming the tensor, or, where a parameter was
    already non-finite before the step, that one."""

    def __init__(self, config: RmsPropConfig | None = None):
        self.config = config or RmsPropConfig()
        self._acc: dict[str, np.ndarray] = {}

    def step(self, model: LuNetModel):
        lr = self.config.learning_rate
        for name, layer, pname, value in model.named_params():
            g = layer.grads.pop(pname)
            acc = self._acc.get(name)
            if acc is None:
                acc = self._acc[name] = np.zeros_like(value)
            # in place, in the operation order of the formula above, so the
            # results are bitwise those of the plain expression
            upd = (1.0 - RHO) * g
            upd *= g
            acc *= RHO
            acc += upd
            np.sqrt(acc, out=upd)
            upd += EPSILON
            g *= lr
            np.divide(g, upd, out=upd)
            value -= upd
            if not np.isfinite(value).all():
                # every parameter before this one was checked finite, so one
                # that is not finite now was not before the step either
                name, when = next(((n, "before") for n, _, _, v in model.named_params()
                                   if n != name and not np.isfinite(v).all()), (name, "after"))
                raise FloatingPointError(f"non-finite parameter {name} {when} an RMSprop step")


def iter_batches(n: int, tc: TrainConfig, epoch: int):
    """Mini-batches of the epoch's seeded row permutation; a trailing batch of a
    single sample is dropped (batch-norm needs >= 2 rows in train mode)."""
    order = Rng(tc.seed + epoch).permutation(n)
    for start in range(0, n, tc.batch_size):
        batch = order[start:start + tc.batch_size]
        if len(batch) >= 2:
            yield batch


def train_epoch(model: LuNetModel, features: np.ndarray, labels: np.ndarray,
                tc: TrainConfig, optimizer: RmsProp, epoch: int = 0):
    """One pass of mini-batch RMSprop; returns (mean loss, train accuracy).

    A batch whose loss is not finite raises FloatingPointError naming the
    epoch, the batch and the first layer whose output went non-finite there:
    each dropout `Rng` restarts from its seed, then
    `LuNetModel.first_nonfinite_layer` runs the batch again. Only a failing
    step pays for that search."""
    n = features.shape[0]
    if tc.batch_size > n:
        raise ValueError(f"batch_size {tc.batch_size} exceeds dataset size {n}")
    model.set_mode("train")
    classes = model.spec.num_classes
    losses, correct, seen = [], 0, 0
    # numpy's overflow warnings are off: a step that goes non-finite raises
    # instead, naming the epoch and batch (each counted from 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, batch in enumerate(iter_batches(n, tc, epoch), 1):
            try:
                xb, yb = features[batch], labels[batch]
                probs = model.forward(xb)
                y = one_hot(yb, classes)
                loss = cross_entropy_loss(probs, y)
                if not np.isfinite(loss):
                    _reseed_dropout(model.layers)
                    raise FloatingPointError(
                        f"non-finite training loss; {model.first_nonfinite_layer(xb)} is the "
                        "first layer whose output went non-finite")
                losses.append(loss)
                correct += int(np.sum(np.argmax(probs, axis=1) == yb))
                seen += len(batch)
                model.backward(cross_entropy_delta(probs, y))
                optimizer.step(model)
            except FloatingPointError as e:
                raise FloatingPointError(f"epoch {epoch + 1}, batch {b}: {e}") from None
    return float(np.mean(losses)), correct / seen


def fit(model: LuNetModel, features: np.ndarray, labels: np.ndarray,
        tc: TrainConfig, oc: RmsPropConfig | None = None, log=None):
    """Run `tc.epochs` training epochs and return their history; `log` gets
    each epoch's `(epoch, loss, train_acc)` record as it is appended."""
    optimizer = RmsProp(oc)
    history = []
    for epoch in range(tc.epochs):
        loss, acc = train_epoch(model, features, labels, tc, optimizer, epoch)
        history.append((epoch, loss, acc))
        if log is not None:
            log(history[-1])
    return history


def _rel_error(a: float, n: float) -> float:
    # scale floor keeps finite-difference noise on near-zero gradients from
    # registering as large relative errors
    return abs(a - n) / max(abs(a) + abs(n), 1e-3)


def gradient_check(loss_fn, entries: dict[str, tuple[np.ndarray, np.ndarray]],
                   samples: int = 50) -> dict[str, float]:
    """Central finite differences against analytic gradients.

    `loss_fn()` must recompute the scalar loss from current tensor values;
    `entries` maps a name to (value tensor, analytic gradient). At least
    `samples` coordinates per tensor are probed (all of them when smaller),
    picked by `Rng(0)`. Returns the max relative error per entry.
    """
    rng = Rng(0)
    report = {}
    for name, (value, grad) in entries.items():
        flat_v = value.reshape(-1)
        flat_g = grad.reshape(-1)
        size = flat_v.size
        if size <= samples:
            coords = np.arange(size)
        else:
            coords = rng.permutation(size)[:samples]
        worst = 0.0
        for c in coords:
            orig = flat_v[c]
            flat_v[c] = orig + FD_STEP
            up = loss_fn()
            flat_v[c] = orig - FD_STEP
            down = loss_fn()
            flat_v[c] = orig
            numeric = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, _rel_error(float(flat_g[c]), numeric))
        report[name] = worst
    return report


def _reseed_dropout(layers):
    """Re-seed each dropout layer's Rng from its seed, so that every forward
    after this one draws the same mask."""
    for layer in layers:
        if isinstance(layer, Dropout):
            layer.rng = Rng(layer.rng.seed)


def model_gradient_check(model: LuNetModel, x: np.ndarray, labels: np.ndarray,
                         samples: int = 25) -> dict[str, float]:
    """Finite-difference check of the whole stack through the fused
    softmax + cross-entropy loss. Every forward re-seeds the dropout layers
    first, so all draw the same masks; they stay re-seeded afterwards."""
    model.set_mode("train")
    y = one_hot(labels, model.spec.num_classes)

    def forward():
        _reseed_dropout(model.layers)
        return model.forward(x)

    def loss_fn():
        return cross_entropy_loss(forward(), y)

    model.backward(cross_entropy_delta(forward(), y))
    entries = {name: (value, layer.grads[pname])
               for name, layer, pname, value in model.named_params()}
    return gradient_check(loss_fn, entries, samples=samples)


def standard_gradient_suite() -> dict[str, float]:
    """Finite-difference check of every layer type plus a one-level LuNet;
    returns the max relative error per entry."""
    from . import layers as L
    from . import model as model_mod
    from .model import LuNetSpec

    results: dict[str, float] = {}

    def check(tag, layer, x):
        w_holder = {}

        def loss_fn():
            _reseed_dropout([layer])
            out = layer.forward(x.copy())
            if "w" not in w_holder:
                w_holder["w"] = Rng(11).normal(out.shape)
            return float((out * w_holder["w"]).sum())

        loss_fn()  # leaves the forward state that backward reads
        dx = layer.backward(w_holder["w"])
        entries = {f"{tag}.{p}": (layer.params[p], layer.grads[p]) for p in layer.params}
        entries[f"{tag}.input"] = (x, dx)
        results[tag] = max(gradient_check(loss_fn, entries).values())

    data_rng = Rng(5)
    check("conv1d", L.Conv1D(3, 4, 3, Rng(2)), data_rng.normal((2, 8, 3)))
    check("maxpool", L.MaxPool1D(2), data_rng.normal((2, 7, 3)))
    check("batchnorm", L.BatchNorm(4), data_rng.normal((6, 4)))
    check("lstm", L.LSTM(3, 4, Rng(3)), data_rng.normal((2, 5, 3)))
    check("dense", L.Dense(4, 3, Rng(4)), data_rng.normal((2, 4)))
    check("relu", L.ReLU(), data_rng.normal((2, 6, 3)))
    check("gap", L.GlobalAvgPool(), data_rng.normal((2, 6, 3)))

    check("dropout", L.Dropout(0.5, Rng(6)), data_rng.normal((3, 8)))

    # fused softmax + cross-entropy: gradient w.r.t. logits is (p - y)/batch
    logits = data_rng.normal((4, 3))
    y = one_hot(np.array([0, 2, 1, 1]), 3)

    def sm_loss():
        return cross_entropy_loss(softmax(logits), y)

    dlogits = cross_entropy_delta(softmax(logits), y)
    results["softmax_xent"] = max(gradient_check(
        sm_loss, {"logits": (logits, dlogits)}).values())

    spec = LuNetSpec(input_features=32, num_classes=3, levels=(4,),
                     final_conv_filters=4, init_seed=7)
    m = model_mod.build(spec)
    mx = data_rng.normal((2, 32))
    report = model_gradient_check(m, mx, np.array([0, 2]), samples=10)
    results["lunet_1block"] = max(report.values())
    return results
