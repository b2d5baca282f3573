"""Dataset ingestion for NSL-KDD and UNSW-NB15: CSV parsing, one-hot
encoding, standardization, labeling, stratified k-fold splitting and a
synthetic blob fixture for offline testing."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import struct
import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from . import layers
from .binio import Reader, write_block, write_strings, write_tensor
from .tensor import Rng


class DataError(Exception):
    """Raised for malformed inputs, unknown labels or impossible splits."""


# column kinds within a raw file row
NUMERIC, CATEGORICAL, LABEL, DROP = "numeric", "categorical", "label", "drop"


@dataclass(frozen=True)
class DatasetSchema:
    columns: tuple[tuple[str, str], ...]  # full file row order: (name, kind)
    class_names_multi: tuple[str, ...]  # the normal class comes first
    class_map_multi: dict  # raw label value -> multi-class name
    label_aliases: dict  # stripped label cell -> the raw label value it stands for

    @property
    def feature_columns(self):
        return tuple((n, k) for n, k in self.columns if k in (NUMERIC, CATEGORICAL))


_NSL_KDD_FEATURES = [
    ("duration", NUMERIC), ("protocol_type", CATEGORICAL), ("service", CATEGORICAL),
    ("flag", CATEGORICAL), ("src_bytes", NUMERIC), ("dst_bytes", NUMERIC),
    ("land", NUMERIC), ("wrong_fragment", NUMERIC), ("urgent", NUMERIC),
    ("hot", NUMERIC), ("num_failed_logins", NUMERIC), ("logged_in", NUMERIC),
    ("num_compromised", NUMERIC), ("root_shell", NUMERIC), ("su_attempted", NUMERIC),
    ("num_root", NUMERIC), ("num_file_creations", NUMERIC), ("num_shells", NUMERIC),
    ("num_access_files", NUMERIC), ("num_outbound_cmds", NUMERIC),
    ("is_host_login", NUMERIC), ("is_guest_login", NUMERIC), ("count", NUMERIC),
    ("srv_count", NUMERIC), ("serror_rate", NUMERIC), ("srv_serror_rate", NUMERIC),
    ("rerror_rate", NUMERIC), ("srv_rerror_rate", NUMERIC), ("same_srv_rate", NUMERIC),
    ("diff_srv_rate", NUMERIC), ("srv_diff_host_rate", NUMERIC),
    ("dst_host_count", NUMERIC), ("dst_host_srv_count", NUMERIC),
    ("dst_host_same_srv_rate", NUMERIC), ("dst_host_diff_srv_rate", NUMERIC),
    ("dst_host_same_src_port_rate", NUMERIC), ("dst_host_srv_diff_host_rate", NUMERIC),
    ("dst_host_serror_rate", NUMERIC), ("dst_host_srv_serror_rate", NUMERIC),
    ("dst_host_rerror_rate", NUMERIC), ("dst_host_srv_rerror_rate", NUMERIC),
]

# 39 attack names grouped into the four NSL-KDD categories
_NSL_KDD_ATTACK_GROUPS = {
    "DoS": ["back", "land", "neptune", "pod", "smurf", "teardrop", "apache2",
            "udpstorm", "processtable", "worm", "mailbomb"],
    "Probe": ["satan", "ipsweep", "nmap", "portsweep", "mscan", "saint"],
    "R2L": ["guess_passwd", "ftp_write", "imap", "phf", "multihop", "warezmaster",
            "warezclient", "spy", "xlock", "xsnoop", "snmpguess", "snmpgetattack",
            "httptunnel", "sendmail", "named"],
    "U2R": ["buffer_overflow", "loadmodule", "rootkit", "perl", "sqlattack",
            "xterm", "ps"],
}

_NSL_KDD_CLASS_MAP = {"normal": "Normal"}
for _cat, _attacks in _NSL_KDD_ATTACK_GROUPS.items():
    for _a in _attacks:
        _NSL_KDD_CLASS_MAP[_a] = _cat

NSL_KDD = DatasetSchema(
    # 41 features, the attack-name label, then the difficulty score (dropped)
    columns=tuple(_NSL_KDD_FEATURES) + (("class_label", LABEL), ("difficulty", DROP)),
    class_names_multi=("Normal", "DoS", "Probe", "R2L", "U2R"),
    class_map_multi=_NSL_KDD_CLASS_MAP,
    label_aliases={},
)

_UNSW_FEATURES = [
    ("dur", NUMERIC), ("proto", CATEGORICAL), ("service", CATEGORICAL),
    ("state", CATEGORICAL), ("spkts", NUMERIC), ("dpkts", NUMERIC),
    ("sbytes", NUMERIC), ("dbytes", NUMERIC), ("rate", NUMERIC),
    ("sttl", NUMERIC), ("dttl", NUMERIC), ("sload", NUMERIC), ("dload", NUMERIC),
    ("sloss", NUMERIC), ("dloss", NUMERIC), ("sinpkt", NUMERIC), ("dinpkt", NUMERIC),
    ("sjit", NUMERIC), ("djit", NUMERIC), ("swin", NUMERIC), ("stcpb", NUMERIC),
    ("dtcpb", NUMERIC), ("dwin", NUMERIC), ("tcprtt", NUMERIC), ("synack", NUMERIC),
    ("ackdat", NUMERIC), ("smean", NUMERIC), ("dmean", NUMERIC),
    ("trans_depth", NUMERIC), ("response_body_len", NUMERIC),
    ("ct_srv_src", NUMERIC), ("ct_state_ttl", NUMERIC), ("ct_dst_ltm", NUMERIC),
    ("ct_src_dport_ltm", NUMERIC), ("ct_dst_sport_ltm", NUMERIC),
    ("ct_dst_src_ltm", NUMERIC), ("is_ftp_login", NUMERIC), ("ct_ftp_cmd", NUMERIC),
    ("ct_flw_http_mthd", NUMERIC), ("ct_src_ltm", NUMERIC), ("ct_srv_dst", NUMERIC),
    ("is_sm_ips_ports", NUMERIC),
]

_UNSW_CLASSES = ("Normal", "Analysis", "Backdoor", "DoS", "Exploits", "Fuzzers",
                 "Generic", "Reconnaissance", "Shellcode", "Worms")

UNSW_NB15 = DatasetSchema(
    columns=(("id", DROP),) + tuple(_UNSW_FEATURES)
    + (("attack_cat", LABEL), ("label", DROP)),
    class_names_multi=_UNSW_CLASSES,
    class_map_multi={c: c for c in _UNSW_CLASSES},
    # benign rows carry an empty attack category in the raw files
    label_aliases={"": "Normal", "Backdoors": "Backdoor"},
)

SCHEMAS = {"nsl-kdd": NSL_KDD, "unsw-nb15": UNSW_NB15}


@dataclass
class RawTable:
    """Parsed rows. A categorical column and the labels (aliases mapped) are a
    (vocabulary, codes) pair: the distinct values, sorted by `load_csv` (one
    file's parse or sidecar lists them as they first appear), and row codes."""

    schema: DatasetSchema
    columns: dict  # name -> float64 array (numeric) or (vocabulary, codes)
    labels: tuple  # (vocabulary, codes)

    @property
    def n_rows(self):
        return len(self.labels[1])


@dataclass
class DatasetTable:
    """Encoded, labeled feature matrix ready for training."""

    features: np.ndarray  # [samples, encoded_width] float64
    labels: np.ndarray  # [samples] int
    encoded_columns: list
    class_names: list


@dataclass
class FoldPlan:
    assignments: np.ndarray  # per-sample fold index in [0, k)

    def val_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


# Rows parsed per column block: enough that per-block overhead vanishes, few
# enough that one block of cell strings stays a few MB.
CSV_BLOCK = 4096


def utf8_lines(fh, p):
    """The lines of text file `fh` (path `p`); text that is not UTF-8 is a
    DataError naming the line of the first bad byte."""
    try:
        yield from fh
    except UnicodeDecodeError as e:
        # the decoder counts offsets within its buffered chunk, so place the
        # bad byte by decoding the bytes under `fh` whole
        fh.buffer.seek(0)
        data = fh.buffer.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = data.count(b"\n", 0, whole.start) + 1
            raise DataError(f"{p} line {line}: not UTF-8 text "
                            f"(byte 0x{data[whole.start]:02x})") from None
        raise DataError(f"{p}: not UTF-8 text ({e})") from None


def _data_rows(reader, p, feature_names):
    """The non-blank rows of file `p`, less a header row: a first non-blank
    row that names at least two feature columns. A row the reader cannot
    split (a cell over the csv module's field size limit) is a DataError
    naming its data row."""
    first, row_no = True, 0
    try:
        for cells in reader:
            if not cells:
                continue
            if first:
                first = False
                if len({c.strip().lower() for c in cells} & feature_names) >= 2:
                    continue
            row_no += 1
            yield cells
    except csv.Error as e:
        raise DataError(f"{p} row {row_no + 1}: unreadable CSV row ({e})") from None


def _blocks(rows):
    """`rows` in lists of up to CSV_BLOCK. An error raised while reading (a
    byte that is not UTF-8, an unreadable row) follows the block of the rows
    read before it, so that their own faults come first, as they do row by
    row."""
    while True:
        block = []
        try:
            for cells in islice(rows, CSV_BLOCK):
                block.append(cells)
        except DataError:
            if block:
                yield block
            raise
        if block:
            yield block
        if len(block) < CSV_BLOCK:
            return


def _first_fault(p, rows, rows_before, schema) -> DataError:
    """The error of the first faulty row of `rows`, which follow `rows_before`
    data rows of file `p`: a wrong cell count, else the first numeric cell in
    schema order that does not parse or is not finite."""
    expected = len(schema.columns)
    for row_no, cells in enumerate(rows, rows_before + 1):
        if len(cells) != expected:
            return DataError(
                f"{p} row {row_no}: expected {expected} columns, found {len(cells)}")
        for (name, kind), cell in zip(schema.columns, cells):
            if kind != NUMERIC:
                continue
            where = f"{p} row {row_no}, column {name!r}"
            try:
                value = float(cell)
            except ValueError:
                return DataError(f"{where}: unparseable numeric cell {cell!r}")
            if not math.isfinite(value):
                return DataError(f"{where}: non-finite numeric cell {value!r}")
    raise AssertionError("no faulty row in the block")


def _parse_file(p, blob: bytes, schema: DatasetSchema) -> RawTable:
    """The rows of file `p`, whose bytes are `blob`, parsed `CSV_BLOCK` at a
    time, column by column; a block with a fault is searched row by row."""
    expected = len(schema.columns)
    feature_names = {n for n, _ in schema.feature_columns}
    # numeric columns collect one array per block, categorical ones strings
    columns = {n: [] for n, _ in schema.feature_columns}
    labels = []
    aliases = schema.label_aliases
    row_no = 0
    with io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8", newline="") as fh:
        rows = _data_rows(csv.reader(utf8_lines(fh, p)), p, feature_names)
        for block in _blocks(rows):
            n = len(block)
            if set(map(len, block)) != {expected}:
                raise _first_fault(p, block, row_no, schema)
            try:
                for (name, kind), cells in zip(schema.columns, zip(*block)):
                    if kind == NUMERIC:
                        col = np.fromiter(map(float, cells), np.float64, n)
                        if not np.isfinite(col).all():
                            raise ValueError  # searched as an unparseable cell is
                        columns[name].append(col)
                    elif kind == CATEGORICAL:
                        # interned, so `_coded`'s dict lookups match on identity
                        columns[name].extend(map(sys.intern, map(str.strip, cells)))
                    elif kind == LABEL:
                        values = list(map(sys.intern, map(str.strip, cells)))
                        labels.extend(map(aliases.get, values, values))
            except ValueError:
                raise _first_fault(p, block, row_no, schema) from None
            row_no += n
    if row_no == 0:
        raise DataError(f"{p}: no data rows")
    for name, kind in schema.feature_columns:
        columns[name] = (np.concatenate if kind == NUMERIC else _coded)(columns[name])
    return RawTable(schema=schema, columns=columns, labels=_coded(labels))


def _coded(values: list) -> tuple[list, np.ndarray]:
    """`values` as (its distinct values in first-appearance order, codes)."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


# The table cache: each parsed file's table in the sidecar file
# `<file>.lunetcache`, under a key of the file's bytes and the schema. Its
# layout: CACHE_MAGIC | key block | u32 rows | per feature column in schema
# order, then for the labels: a numeric column as a tensor, a categorical
# column (or the labels) as its vocabulary strings and a tensor of codes.
CACHE_SUFFIX = ".lunetcache"
CACHE_MAGIC = b"LUNETTAB\0"
CACHE_VERSION = 1
_LABELS = ("labels", LABEL)


class _StaleCache(Exception):
    """A sidecar that does not hold this file's table under this schema."""


def _cache_key(blob: bytes, schema: DatasetSchema) -> dict:
    # imported here: hashlib's OpenSSL would cost every `import lunet` 4.5 ms
    # and 3.6 MiB, and only the cache needs it
    import hashlib

    fingerprint = repr((schema.columns, sorted(schema.label_aliases.items()),
                        sorted(schema.class_map_multi.items()), schema.class_names_multi))
    return {"version": str(CACHE_VERSION), "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": str(len(blob)),
            "schema": hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()}


def _read_cache(side: str, key: dict, schema: DatasetSchema) -> RawTable | None:
    """The table stored in sidecar `side` under `key`, or None when there is
    no such sidecar or it is truncated, foreign, stale or of another version."""
    try:
        with open(side, "rb") as fh:
            r = Reader(side, fh.read(), _StaleCache, "table cache")
        if r.take(len(CACHE_MAGIC)) != CACHE_MAGIC or r.block() != key:
            return None
        (n,) = r.unpack("<I")
        columns = {}
        for name, kind in (*schema.feature_columns, _LABELS):
            vocab = r.strings() if kind != NUMERIC else None
            stored, values = r.tensor()
            if stored != name or values.shape != (n,):
                return None
            if vocab is not None:
                if not (values.min() >= 0 and values.max() < len(vocab)):
                    return None  # NaN codes fail here too
                values = vocab, values.astype(np.intp)
            columns[name] = values
        if r.pos != len(r.blob):
            return None
    except (OSError, _StaleCache):
        return None
    return RawTable(schema, columns, columns.pop(_LABELS[0]))


def _write_cache(side: str, key: dict, raw: RawTable):
    """Store `raw` in sidecar `side` under `key`: written whole to a temporary
    file, then renamed over the sidecar. A path that cannot be written leaves
    no cache and raises nothing."""
    tmp = f"{side}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CACHE_MAGIC)
            write_block(fh, key)
            fh.write(struct.pack("<I", raw.n_rows))
            for name, kind in (*raw.schema.feature_columns, _LABELS):
                values = raw.labels if kind == LABEL else raw.columns[name]
                if kind != NUMERIC:
                    vocab, values = values
                    write_strings(fh, vocab)
                write_tensor(fh, name, values)  # codes are stored as float64
        os.replace(tmp, side)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _load_file(p, schema: DatasetSchema) -> RawTable:
    """File `p` parsed against the schema, from its sidecar when that holds
    the parse of these very bytes. Only the bytes read here are hashed and
    parsed, so a file edited meanwhile cannot pair one content's key with
    another's table; a parse that raises (a non-finite cell too) is not cached."""
    try:
        with open(p, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise DataError(f"cannot open dataset file {p}: {e}") from e
    key = _cache_key(blob, schema)
    side = f"{p}{CACHE_SUFFIX}"
    raw = _read_cache(side, key, schema)
    if raw is None:
        raw = _parse_file(p, blob, schema)
        _write_cache(side, key, raw)
    return raw


def load_csv(path, schema: DatasetSchema, paths_extra=()) -> RawTable:
    """Parse one or more delimited files against the schema's column order.

    A first row naming two feature columns is a header. Every file must be
    UTF-8 text holding at least one data row, every numeric cell must parse
    to a finite number, and no cell may exceed the csv module's field size
    limit. Errors name the file, the row (data rows are counted from 1 in
    each file) and the column, or the file line of a byte that is not UTF-8.
    Rows are parsed `CSV_BLOCK` at a time, column by column, and a block
    with a fault is searched row by row, so the earliest faulty cell in file
    order is raised, non-finite or unparseable. A file read before comes
    from its sidecar `<file>.lunetcache` (see `_load_file`). Vocabularies
    are the union of the files', sorted.
    """
    parts = [_load_file(p, schema) for p in (path, *paths_extra)]
    columns = {name: (np.concatenate if kind == NUMERIC else _merged)(
                   [t.columns[name] for t in parts])
               for name, kind in schema.feature_columns}
    return RawTable(schema=schema, columns=columns, labels=_merged([t.labels for t in parts]))


def _merged(parts: list) -> tuple[list, np.ndarray]:
    """Consecutive files' (vocabulary, codes) as one over their sorted union."""
    vocab = sorted(set().union(*(v for v, _ in parts)))
    index = {v: i for i, v in enumerate(vocab)}
    return vocab, np.concatenate([np.array([index[v] for v in v_part], np.intp)[codes]
                                  for v_part, codes in parts])


def _by_halves(fill, out: np.ndarray):
    """Call `fill(lo, hi)` to write rows [lo, hi) of `out`, for all its rows:
    where `out` holds at least 2 x `layers.BLOCK_BYTES`, the second half
    beside this thread's first (`layers.beside`, which runs it here where the
    worker cannot pay), else all of them in one call. Each element gets the
    operation it gets in one pass, so the result is bitwise the same either
    way."""
    n = len(out)
    if out.nbytes < 2 * layers.BLOCK_BYTES:
        fill(0, n)
        return
    with layers.beside(partial(fill, n // 2, n)):
        fill(0, n // 2)


def encode_categorical(raw: RawTable) -> tuple[np.ndarray, list]:
    """One-hot expand categorical columns in place of their original position.

    Vocabularies are the full table's, sorted by `load_csv`, so the encoded
    width never varies per fold. A column's codes plus the index of its first
    indicator column are its cells' encoded column indices. The table is
    written in blocks of rows of about `layers.BLOCK_BYTES`, which stay in
    cache while every column writes into them (see `_by_halves`)."""
    n = raw.n_rows
    numeric, codes, encoded_columns = [], [], []
    for name, kind in raw.schema.feature_columns:
        col = raw.columns[name]
        if kind == NUMERIC:
            numeric.append((len(encoded_columns), col))
            encoded_columns.append(name)
            continue
        vocab, col_codes = col
        if not vocab:
            raise DataError(f"categorical column {name!r} is empty")
        codes.append(col_codes + len(encoded_columns))
        encoded_columns.extend(f"{name}={v}" for v in vocab)
    features = np.zeros((n, len(encoded_columns)))
    block = max(1, layers.BLOCK_BYTES // (features.itemsize * features.shape[1]))

    def fill(lo, hi):
        rows = np.arange(min(block, hi - lo))
        for r0 in range(lo, hi, block):
            r1 = min(r0 + block, hi)
            f = features[r0:r1]
            for j, col in numeric:
                f[:, j] = col[r0:r1]
            for c in codes:
                f[rows[:r1 - r0], c[r0:r1]] = 1.0

    _by_halves(fill, features)
    return features, encoded_columns


def make_labels(raw: RawTable, task: str) -> tuple[np.ndarray, list]:
    """Integer labels plus the ordered class vocabulary for the task; the
    normal class, first in `class_names_multi`, is class 0 for both tasks."""
    schema = raw.schema
    if task == "binary":
        class_names = ["normal", "attack"]
        index = {c: int(i > 0) for i, c in enumerate(schema.class_names_multi)}
    elif task == "multi":
        class_names = list(schema.class_names_multi)
        index = {c: i for i, c in enumerate(class_names)}
    else:
        raise ValueError(f"unknown task {task!r}")
    vocab, codes = raw.labels  # each vocabulary value is looked up once, never a row
    labels = np.array([index.get(schema.class_map_multi.get(v), -1)  # -1: unmapped
                       for v in vocab], np.int64)[codes]
    if (labels < 0).any():  # name the value of the first unmapped row
        raise DataError(f"unmapped label value {vocab[codes[np.argmin(labels)]]!r}")
    return labels, class_names


def prepare_dataset(raw: RawTable, task: str) -> DatasetTable:
    features, encoded_columns = encode_categorical(raw)
    labels, class_names = make_labels(raw, task)
    return DatasetTable(features=features, labels=labels,
                        encoded_columns=encoded_columns, class_names=class_names)


# Rows fit_standardization gathers at a time: 512 x 122 float64 is 500 KB
FIT_BLOCK = 512


def fit_standardization(features: np.ndarray, fit_rows: np.ndarray):
    """Per-column population mean/std computed on `fit_rows` only, bitwise
    equal to `features[fit_rows].mean(axis=0)` and `.std(axis=0)`.

    The rows are gathered `FIT_BLOCK` at a time into a buffer behind the
    running sum in its row 0, and an axis-0 reduce adds rows one after
    another into the first, so each block adds on in the order one reduce
    over all the rows would. No copy of the fit rows is made; a `features`
    that is not C-contiguous is copied once, as `np.take` from it is slow."""
    features = np.ascontiguousarray(features)
    rows = np.asarray(fit_rows)
    n = len(rows)
    if n == 0:
        raise ValueError("fit_rows must be non-empty")
    # checked once here, so that each block's take need not check (and
    # buffer) its output: mode="clip" never clips an index in range
    if rows.min() < 0 or rows.max() >= len(features):
        raise IndexError(f"fit_rows must index the {len(features)} rows of features")
    buf = np.empty((min(n, FIT_BLOCK) + 1, features.shape[1]))

    def column_means(mean=None):
        # np.mean and np.std's own steps: the mean of the rows, or of their
        # squared deviations from `mean`
        for i in range(0, n, FIT_BLOCK):
            idx = rows[i:i + FIT_BLOCK]
            block = np.take(features, idx, axis=0, out=buf[1:len(idx) + 1], mode="clip")
            if mean is not None:
                block -= mean
                block *= block
            # the first block has no running sum to add onto
            buf[0] = np.add.reduce(buf[1 if i == 0 else 0:len(idx) + 1], axis=0)
        return buf[0] / n

    mean = column_means()
    return mean, np.sqrt(column_means(mean))


def apply_standardization(features: np.ndarray, mean: np.ndarray,
                          std: np.ndarray) -> np.ndarray:
    """`(features - mean) / std` in a new array, with near-constant columns
    (std below 1e-12) exactly zero instead of exploding; written by halves
    of its rows (see `_by_halves`)."""
    const = std < 1e-12
    safe = np.where(const, 1.0, std)
    out = np.empty(features.shape)

    def fill(lo, hi):
        o = out[lo:hi]
        np.subtract(features[lo:hi], mean, out=o)
        o /= safe
        o[:, const] = 0.0

    _by_halves(fill, out)
    return out


def stratified_kfold(labels: np.ndarray, k: int, seed: int,
                     class_names=None) -> FoldPlan:
    """Per class: seeded permutation, then deal round-robin into k folds. A
    class with fewer than k samples is a DataError naming it by its entry in
    `class_names`, or by its label if none are given."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    labels = np.asarray(labels)
    rng = Rng(seed)
    assignments = np.full(labels.shape[0], -1, dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            name = c if class_names is None else repr(class_names[c])
            raise DataError(f"class {name} has {len(idx)} samples, fewer than k={k}")
        order = idx[rng.permutation(len(idx))]
        assignments[order] = np.arange(len(idx)) % k
    return FoldPlan(assignments=assignments)


def stratified_subsample(labels: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Indices of a class-proportional subsample of size exactly n (largest
    remainders), keeping at least one sample per class."""
    labels = np.asarray(labels)
    total = labels.shape[0]
    if n >= total:
        return np.arange(total)
    rng = Rng(seed)
    classes = np.unique(labels)
    quotas, remainders = {}, []
    for c in classes:
        exact = n * np.sum(labels == c) / total
        quotas[c] = max(1, int(exact))
        remainders.append((exact - int(exact), c))
    while sum(quotas.values()) < n:
        remainders.sort(reverse=True)
        for _, c in remainders:
            if sum(quotas.values()) >= n:
                break
            quotas[c] += 1
    while sum(quotas.values()) > n:
        c = max(quotas, key=lambda c: quotas[c])
        quotas[c] -= 1
    picked = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        take = min(quotas[c], len(idx))
        picked.append(idx[rng.permutation(len(idx))[:take]])
    return np.sort(np.concatenate(picked))


def synth_dataset(classes: int, samples: int, features: int, separation: float,
                  seed: int) -> DatasetTable:
    """Gaussian blobs, one per class, deterministic per seed."""
    if separation <= 0:
        raise ValueError("separation must be > 0")
    rng = Rng(seed)
    centers = rng.normal((classes, features), 0.0, separation)
    labels = np.arange(samples, dtype=np.int64) % classes
    points = centers[labels] + rng.normal((samples, features), 0.0, 1.0)
    return DatasetTable(features=points, labels=labels,
                        encoded_columns=[f"f{i}" for i in range(features)],
                        class_names=[f"class{i}" for i in range(classes)])
