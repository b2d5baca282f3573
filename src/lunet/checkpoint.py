"""Binary checkpoint format: model spec, every parameter tensor, batch-norm
running statistics, and the standardization constants needed for evaluation.

Layout (all integers and floats little-endian):
  magic "LUNET1\\0" | u32 version | spec key=value block (the `LuNetSpec`
  fields) | meta key=value block (the task) | class names | encoded column
  names | u32 tensor count | tensors (u16 name len, name, u8 rank, u32 dims,
  f64 data)

The two name lists are binio string lists, so a name may hold any character.
Each LSTM is stored as gate-stacked `levelK.lstm.U`, `.W` and `.b` with the
gates as column blocks p|g|f|q. Only version 3 loads: a file of any other
version, or whose spec block holds a key other than the `LuNetSpec` fields,
raises CheckpointError naming it.
"""

from __future__ import annotations

import struct

import numpy as np

from . import model as model_mod
from .binio import Reader, write_block, write_strings, write_tensor
from .model import LuNetModel, LuNetSpec

MAGIC = b"LUNET1\0"
VERSION = 3


class CheckpointError(Exception):
    pass


class _Undrawn:
    """Stands in for `build`'s Rng when stored tensors replace every weight:
    it leaves each one unwritten instead of drawing it."""

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return np.empty(shape)


def save_checkpoint(path, model: LuNetModel, mean: np.ndarray, std: np.ndarray,
                    class_names: list, encoded_columns: list, task: str):
    tensors = [("standardize.mean", mean), ("standardize.std", std)]
    tensors += [(name, value) for name, _, _, value in model.named_params()]
    tensors += list(model.named_state())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        write_block(fh, model.spec.to_mapping())
        write_block(fh, {"task": task})
        write_strings(fh, class_names)
        write_strings(fh, encoded_columns)
        fh.write(struct.pack("<I", len(tensors)))
        for name, value in tensors:
            write_tensor(fh, name, value)


def load_checkpoint(path):
    """Returns (model, mean, std, class_names, encoded_columns, task).

    Every stored tensor's shape is checked against the shapes the spec
    implies before any layer is built; the layers are then built around the
    stored tensors, drawing no weight. The rebuilt model reproduces
    infer-mode outputs of the saved one bitwise. Any unreadable, truncated
    or inconsistent file raises CheckpointError.
    """
    try:
        with open(path, "rb") as fh:
            r = Reader(path, fh.read(), CheckpointError, "checkpoint")
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from None
    if not r.blob.startswith(MAGIC):
        raise r.error("bad checkpoint magic")
    r.take(len(MAGIC))
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise r.error(f"unsupported checkpoint version {version}", len(MAGIC))
    spec_at = r.pos
    spec_map = r.block()
    meta_at = r.pos
    meta = r.block()
    names_at = r.pos
    class_names, encoded_columns = r.strings(), r.strings()
    tensors_at = r.pos
    (count,) = r.unpack("<I")
    tensors = dict(r.tensor() for _ in range(count))
    if r.pos != len(r.blob):
        raise r.error(f"{len(r.blob) - r.pos} trailing bytes after the last tensor")
    r.blob = b""  # every tensor is a copy: the file's bytes need not outlive the build
    try:
        spec = LuNetSpec.from_mapping(spec_map)
        shapes = model_mod.tensor_shapes(spec)
    except (KeyError, ValueError) as e:
        raise r.error(f"unbuildable model spec: {type(e).__name__}: {e}", spec_at) from None
    try:
        task = meta["task"]
    except KeyError as e:
        raise r.error(f"missing metadata key {e}", meta_at) from None
    if task not in ("binary", "multi"):
        raise r.error(f"unknown task {task!r}", meta_at)
    if len(class_names) != spec.num_classes:
        raise r.error(f"{len(class_names)} class names for {spec.num_classes} classes", names_at)
    if len(encoded_columns) != spec.input_features:
        raise r.error(f"{len(encoded_columns)} encoded column names for "
                      f"{spec.input_features} input features", names_at)

    def stored(name: str, shape: tuple) -> np.ndarray:
        if name not in tensors:
            raise r.error(f"missing tensor {name!r}", tensors_at)
        if tensors[name].shape != shape:
            raise r.error(f"tensor {name!r} has shape {tensors[name].shape}, "
                          f"expected {shape}", tensors_at)
        return tensors[name]

    mean = stored("standardize.mean", (spec.input_features,))
    std = stored("standardize.std", (spec.input_features,))
    values = {name: stored(name, shape) for name, shape in shapes.items()}
    model = model_mod.build(spec, init_rng=_Undrawn())
    for name, layer, pname, _ in model.named_params():
        layer.params[pname] = values[name]
    for name, value in model.named_state():
        value[...] = values[name]
    model.set_mode("infer")
    return model, mean, std, class_names, encoded_columns, task
