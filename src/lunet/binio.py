"""Bounds-checked binary IO shared by the checkpoint and the table cache.

Integers and floats are little-endian. A key=value block is a u32 byte count
then UTF-8 `key=value` lines; a tensor is a u16-prefixed name, a u8 rank, u32
dims and float64 data, which a read requires to be finite; a string list is a
u32 count, then each string as a u32 byte count and its UTF-8 bytes, so no
value needs escaping.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .tensor import check_shape


def write_block(fh, mapping: dict):
    text = "".join(f"{k}={v}\n" for k, v in mapping.items()).encode("utf-8")
    fh.write(struct.pack("<I", len(text)))
    fh.write(text)


def write_tensor(fh, name: str, value: np.ndarray):
    b = name.encode("utf-8")
    fh.write(struct.pack("<H", len(b)))
    fh.write(b)
    fh.write(struct.pack("<B", value.ndim))
    for d in value.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def write_strings(fh, values: list):
    fh.write(struct.pack("<I", len(values)))
    for v in values:
        b = v.encode("utf-8")
        fh.write(struct.pack("<I", len(b)))
        fh.write(b)


class Reader:
    """Bounds-checked cursor over a file's bytes: every read either succeeds
    or raises `error` (an exception class) naming the file and the byte
    offset. `what` names the kind of file in a truncation message."""

    def __init__(self, path, blob: bytes, error: type[Exception], what: str):
        self.path, self.blob, self.pos = path, blob, 0
        self.error_type, self.what = error, what

    def error(self, msg: str, at: int | None = None) -> Exception:
        return self.error_type(f"{self.path} byte {self.pos if at is None else at}: {msg}")

    def skip(self, n: int) -> int:
        """Move past the next `n` bytes; return the offset they start at."""
        left = len(self.blob) - self.pos
        if n > left:
            raise self.error(f"truncated {self.what}: need {n} bytes, {left} left")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.blob[self.skip(n):self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        at = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"bad utf-8 text: {e.reason}", at) from None

    def block(self) -> dict:
        """The next key=value block; a repeated key raises, naming the block's byte."""
        at = self.pos
        (n,) = self.unpack("<I")
        out = {}
        for line in self.text(n).splitlines():
            k, _, v = line.partition("=")
            if k in out:
                raise self.error(f"repeated key {k!r}", at)
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
        count = math.prod(dims)
        # a view of the file's bytes, so that the copy returned is the only one
        at = self.skip(8 * count)
        data = np.frombuffer(self.blob, dtype="<f8", count=count, offset=at)
        finite = np.isfinite(data)
        if not finite.all():
            i = int(np.argmin(finite))
            raise self.error(f"tensor {name!r} holds a non-finite value "
                             f"{float(data[i])!r}", at + 8 * i)
        return name, data.reshape(dims).copy()

    def strings(self) -> list:
        (count,) = self.unpack("<I")
        return [self.text(self.unpack("<I")[0]) for _ in range(count)]
