"""Binary checkpoint format: model spec, every parameter tensor, batch-norm
running statistics, and the standardization constants needed for evaluation.

Layout (all integers and floats little-endian):
  magic "LUNET1\\0" | u32 version | spec key=value block | meta key=value block
  | u32 tensor count | tensors (u16 name len, name, u8 rank, u32 dims, f64 data)

Version 2 stores each LSTM as gate-stacked `levelK.lstm.U`, `.W` and `.b`
with the gates as column blocks p|g|f|q. Version 1 stored one tensor per
gate (`levelK.lstm.U_p`, ..., `.b_q`); it still loads, and the loader stacks
the four gate tensors in p|g|f|q order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import model as model_mod
from .layers import LSTM
from .model import LuNetModel, LuNetSpec
from .tensor import check_shape

MAGIC = b"LUNET1\0"
VERSION = 2


class CheckpointError(Exception):
    pass


def _write_block(fh, mapping: dict):
    text = "".join(f"{k}={v}\n" for k, v in mapping.items()).encode("utf-8")
    fh.write(struct.pack("<I", len(text)))
    fh.write(text)


def _write_tensor(fh, name: str, value: np.ndarray):
    b = name.encode("utf-8")
    fh.write(struct.pack("<H", len(b)))
    fh.write(b)
    fh.write(struct.pack("<B", value.ndim))
    for d in value.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def save_checkpoint(path, model: LuNetModel, mean: np.ndarray, std: np.ndarray,
                    class_names: list, encoded_columns: list, task: str):
    tensors = [("standardize.mean", mean), ("standardize.std", std)]
    tensors += [(name, value) for name, _, _, value in model.named_params()]
    tensors += list(model.named_state())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_block(fh, model.spec.to_mapping())
        _write_block(fh, {
            "task": task,
            "class_names": "|".join(class_names),
            "encoded_columns": "|".join(encoded_columns),
        })
        fh.write(struct.pack("<I", len(tensors)))
        for name, value in tensors:
            _write_tensor(fh, name, value)


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes: every read either
    succeeds or raises CheckpointError naming the file and the byte offset."""

    def __init__(self, path, blob: bytes):
        self.path, self.blob, self.pos = path, blob, 0

    def error(self, msg: str, at: int | None = None) -> CheckpointError:
        return CheckpointError(f"{self.path} byte {self.pos if at is None else at}: {msg}")

    def take(self, n: int) -> bytes:
        left = len(self.blob) - self.pos
        if n > left:
            raise self.error(f"truncated checkpoint: need {n} bytes, {left} left")
        self.pos += n
        return self.blob[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        at = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"bad utf-8 text: {e.reason}", at) from None

    def block(self) -> dict:
        (n,) = self.unpack("<I")
        out = {}
        for line in self.text(n).splitlines():
            k, _, v = line.partition("=")
            out[k] = v
        return out

    def tensor(self) -> tuple[str, np.ndarray]:
        (n,) = self.unpack("<H")
        name = self.text(n)
        at = self.pos
        (rank,) = self.unpack("<B")
        dims = self.unpack(f"<{rank}I")
        try:
            check_shape(dims)
        except ValueError as e:
            raise self.error(f"tensor {name!r}: {e}", at) from None
        data = np.frombuffer(self.take(8 * math.prod(dims)), dtype="<f8")
        return name, data.reshape(dims).copy()


def load_checkpoint(path):
    """Returns (model, mean, std, class_names, encoded_columns, task).

    The rebuilt model reproduces infer-mode outputs of the saved one bitwise.
    Any unreadable, truncated or inconsistent file raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            r = _Reader(path, fh.read())
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from None
    if not r.blob.startswith(MAGIC):
        raise r.error("bad checkpoint magic")
    r.take(len(MAGIC))
    (version,) = r.unpack("<I")
    if version not in (1, VERSION):
        raise r.error(f"unsupported checkpoint version {version}", len(MAGIC))
    spec_at = r.pos
    spec_map = r.block()
    meta_at = r.pos
    meta = r.block()
    tensors_at = r.pos
    (count,) = r.unpack("<I")
    tensors = dict(r.tensor() for _ in range(count))
    if r.pos != len(r.blob):
        raise r.error(f"{len(r.blob) - r.pos} trailing bytes after the last tensor")
    try:
        model = model_mod.build(LuNetSpec.from_mapping(spec_map))
    except (KeyError, ValueError, MemoryError) as e:
        raise r.error(f"unbuildable model spec: {type(e).__name__}: {e}", spec_at) from None
    spec = model.spec
    try:
        task = meta["task"]
        class_names = meta["class_names"].split("|")
        encoded_columns = meta["encoded_columns"].split("|") if meta["encoded_columns"] else []
    except KeyError as e:
        raise r.error(f"missing metadata key {e}", meta_at) from None
    if task not in ("binary", "multi"):
        raise r.error(f"unknown task {task!r}", meta_at)
    if len(class_names) != spec.num_classes:
        raise r.error(f"{len(class_names)} class names for {spec.num_classes} classes", meta_at)

    def stored(name: str, shape: tuple) -> np.ndarray:
        if name not in tensors:
            raise r.error(f"missing tensor {name!r}", tensors_at)
        if tensors[name].shape != shape:
            raise r.error(f"tensor {name!r} has shape {tensors[name].shape}, "
                          f"expected {shape}", tensors_at)
        return tensors[name]

    mean = stored("standardize.mean", (spec.input_features,))
    std = stored("standardize.std", (spec.input_features,))
    for name, layer, pname, value in model.named_params():
        if version == 1 and isinstance(layer, LSTM):
            gate_shape = value.shape[:-1] + (layer.cells,)
            layer.params[pname] = np.concatenate(
                [stored(f"{name}_{gate}", gate_shape) for gate in "pgfq"], axis=-1)
        else:
            layer.params[pname] = stored(name, value.shape)
    for name, value in model.named_state():
        value[...] = stored(name, value.shape)
    model.set_mode("infer")
    return model, mean, std, class_names, encoded_columns, task
