import csv
import io
import os
import struct
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lunet import data, layers
from lunet.data import (CATEGORICAL, DROP, LABEL, NSL_KDD, NUMERIC, UNSW_NB15,
                        DataError, DatasetSchema, RawTable, encode_categorical,
                        fit_standardization, apply_standardization, load_csv,
                        make_labels, stratified_kfold,
                        stratified_subsample, synth_dataset)

NSL_ROW = (["0", "tcp", "http", "SF"] + ["0"] * 37)[:41]


def write_nsl_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for label, difficulty, overrides in rows:
            cells = list(NSL_ROW)
            for idx, val in (overrides or {}).items():
                cells[idx] = val
            fh.write(",".join(cells + [label, difficulty]) + "\n")


@pytest.fixture()
def nsl_file(tmp_path):
    path = tmp_path / "kdd.csv"
    write_nsl_csv(path, [
        ("normal", "20", None),
        ("neptune", "18", {1: "udp"}),
        ("satan", "15", {1: "icmp"}),
        ("guess_passwd", "11", {0: "3"}),
        ("rootkit", "9", {4: "12"}),
    ])
    return str(path)


class TestLoadCsv:
    def test_parses_and_drops_difficulty(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        assert raw.n_rows == 5
        assert "difficulty" not in raw.columns
        assert raw.label_values == ["normal", "neptune", "satan",
                                    "guess_passwd", "rootkit"]
        assert raw.columns["duration"].tolist() == [0, 0, 0, 3, 0]

    def test_column_count_mismatch_names_counts(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(["0"] * 40) + "\n")
        with pytest.raises(DataError, match="expected 43 columns, found 40"):
            load_csv(str(path), NSL_KDD)

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        cells = list(NSL_ROW)
        cells[4] = "oops"
        path.write_text(",".join(cells + ["normal", "1"]) + "\n")
        with pytest.raises(DataError, match="row 1.*src_bytes"):
            load_csv(str(path), NSL_KDD)

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_csv("/nonexistent/file.csv", NSL_KDD)

    def test_header_row_autodetected(self, tmp_path):
        path = tmp_path / "unsw.csv"
        names = [n for n, _ in UNSW_NB15.columns]
        feature_cells = ["1", "0.1", "tcp", "http", "FIN"] + ["1"] * 38
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            fh.write(",".join(feature_cells + ["Exploits", "1"]) + "\n")
            fh.write(",".join(feature_cells + ["", "0"]) + "\n")
            fh.write(",".join(feature_cells + ["Backdoors", "1"]) + "\n")
        raw = load_csv(str(path), UNSW_NB15)
        assert raw.n_rows == 3
        # empty category is benign; legacy spelling is normalized
        assert raw.label_values == ["Exploits", "Normal", "Backdoor"]

    def test_merges_multiple_files(self, tmp_path, nsl_file):
        second = tmp_path / "kdd2.csv"
        write_nsl_csv(second, [("smurf", "3", None)])
        raw = load_csv(nsl_file, NSL_KDD, paths_extra=[str(second)])
        assert raw.n_rows == 6


    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_names_file_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        write_nsl_csv(path, [("normal", "20", None), ("neptune", "18", {5: cell})])
        with pytest.raises(DataError, match=r"nonfinite\.csv row 2, column 'dst_bytes'"):
            load_csv(str(path), NSL_KDD)

    def test_first_non_finite_row_of_a_column_is_named(self, tmp_path):
        path = tmp_path / "nonfinite.csv"
        write_nsl_csv(path, [("normal", "20", None), ("normal", "20", {0: "inf"}),
                             ("normal", "20", {0: "nan"})])
        with pytest.raises(DataError, match="row 2, column 'duration'"):
            load_csv(str(path), NSL_KDD)

    @pytest.mark.parametrize("cell", ["oops", "nan"])
    def test_rows_are_counted_per_file(self, tmp_path, nsl_file, cell):
        second = tmp_path / "kdd2.csv"
        write_nsl_csv(second, [("smurf", "3", {4: cell})])
        with pytest.raises(DataError, match=r"kdd2\.csv row 1, column 'src_bytes'"):
            load_csv(nsl_file, NSL_KDD, paths_extra=[str(second)])

    @pytest.mark.parametrize("content", ["", "\n\n", None])
    def test_extra_file_without_data_rows_rejected(self, tmp_path, nsl_file, content):
        empty = tmp_path / "empty.csv"
        if content is None:  # a header row alone
            content = ",".join(n for n, _ in NSL_KDD.columns) + "\n"
        empty.write_text(content)
        with pytest.raises(DataError, match=r"empty\.csv: no data rows"):
            load_csv(nsl_file, NSL_KDD, paths_extra=[str(empty)])


def reference_load_csv(path, schema, paths_extra=()):
    """`load_csv` row by row: every cell of a row is parsed before the next
    row is read. The block parser must give the same table or error."""
    names = [n for n, _ in schema.columns]
    kinds = dict(schema.columns)
    expected = len(names)
    columns = {n: [] for n, k in schema.columns if k in (NUMERIC, CATEGORICAL)}
    label_values = []
    aliases = schema.label_aliases
    starts = []
    for p in (path, *paths_extra):
        starts.append((p, len(label_values)))
        row_no = 0
        try:
            fh = open(p, newline="", encoding="utf-8")
        except OSError as e:
            raise DataError(f"cannot open dataset file {p}: {e}") from e
        with fh:
            reader = csv.reader(data.utf8_lines(fh, p))
            first = True
            while True:
                try:
                    cells = next(reader)
                except StopIteration:
                    break
                except csv.Error as e:
                    raise DataError(f"{p} row {row_no + 1}: unreadable CSV row ({e})") from None
                if not cells:
                    continue
                if first:
                    first = False
                    lowered = {c.strip().lower() for c in cells}
                    feature_names = {n for n, k in schema.columns
                                     if k in (NUMERIC, CATEGORICAL)}
                    if len(lowered & feature_names) >= 2:
                        continue
                row_no += 1
                if len(cells) != expected:
                    raise DataError(
                        f"{p} row {row_no}: expected {expected} columns, found {len(cells)}")
                for name, cell in zip(names, cells):
                    kind = kinds[name]
                    if kind == DROP:
                        continue
                    if kind == LABEL:
                        label = cell.strip()
                        label_values.append(aliases.get(label, label))
                    elif kind == CATEGORICAL:
                        columns[name].append(cell.strip())
                    else:
                        try:
                            columns[name].append(float(cell))
                        except ValueError:
                            raise DataError(
                                f"{p} row {row_no}, column {name!r}: "
                                f"unparseable numeric cell {cell!r}") from None
        if row_no == 0:
            raise DataError(f"{p}: no data rows")
    for name, kind in schema.columns:
        if kind == NUMERIC:
            col = np.asarray(columns[name], dtype=np.float64)
            finite = np.isfinite(col)
            if not finite.all():
                i = int(np.argmin(finite))
                p, start = next((p, start) for p, start in reversed(starts) if start <= i)
                raise DataError(f"{p} row {i - start + 1}, column {name!r}: "
                                f"non-finite numeric cell {float(col[i])!r}")
            columns[name] = col
    return RawTable(schema=schema, columns=columns, label_values=label_values)


def outcome(parse, paths, schema):
    """What `parse` makes of the files: ("table", columns as bytes or lists,
    labels) or ("error", message)."""
    try:
        raw = parse(paths[0], schema, paths[1:])
    except DataError as e:
        return ("error", str(e))
    cols = {n: (c.dtype.str, c.tobytes()) if isinstance(c, np.ndarray) else c
            for n, c in raw.columns.items()}
    return ("table", list(cols), cols, raw.label_values)


# three features, the label and a dropped column: rows short enough that
# faults land in every position
TINY = DatasetSchema(
    columns=(("a", NUMERIC), ("b", CATEGORICAL), ("c", NUMERIC), ("lab", LABEL),
             ("d", DROP)),
    class_names_multi=("n", "x"), class_map_multi={"n": "n", "x": "x"},
    label_aliases={"": "n", "y": "x"})
NUMERIC_CELLS = ["0", "-0.0", "1.5", " 2e3 ", "7", "nan", "inf", "-Infinity", "1e400",
                 "1,5", "", "0x10", "oops"]
TEXT_CELLS = ["tcp", " udp ", "", "x", "y", "n", "A", "b"]
HEADER = ["a", "b", "C ", "lab", "d"]


def _row(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


@st.composite
def csv_lines(draw):
    """One file's lines: an optional header, blank lines, rows of the right,
    short or long length, and any mix of good, unparseable and non-finite
    numeric cells."""
    lines = [_row(HEADER)] if draw(st.booleans(), label="header") else []
    for _ in range(draw(st.integers(0, 7), label="rows")):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append("\n")
            continue
        cells = [draw(st.sampled_from(NUMERIC_CELLS)), draw(st.sampled_from(TEXT_CELLS)),
                 draw(st.sampled_from(NUMERIC_CELLS)), draw(st.sampled_from(TEXT_CELLS)),
                 draw(st.sampled_from(TEXT_CELLS))]
        if kind == "short":
            cells = cells[:draw(st.integers(1, 4))]
        elif kind == "long":
            cells.append("9")
        lines.append(_row(cells))
    return lines


def write_files(tmp, files):
    paths = []
    for i, (lines, bad_byte_at) in enumerate(files):
        blob = "".join(lines).encode("utf-8")
        if bad_byte_at is not None:
            at = bad_byte_at % (len(blob) + 1)
            blob = blob[:at] + b"\xff" + blob[at:]
        path = tmp / f"part{i}.csv"
        path.write_bytes(blob)
        paths.append(str(path))
    return paths


def sidecar(path):
    return Path(f"{path}{data.CACHE_SUFFIX}")


def drop_sidecars(paths):
    for p in paths:
        sidecar(p).unlink(missing_ok=True)


GOOD = _row(["1", "tcp", "2", "n", "0"])
# a cell over the csv module's 131,072-character field limit
HUGE = _row(["1", "x" * 200_000, "2", "n", "0"])


class TestLoadCsvMatchesRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(files=st.lists(st.tuples(csv_lines(), st.none() | st.integers(0, 400)),
                          min_size=1, max_size=3))
    # a short row after a bad cell, and the reverse
    @example(files=[([_row(["1,5", "tcp", "2", "n", "0"]), _row(["1"])], None)])
    @example(files=[([_row(["1"]), _row(["oops", "tcp", "2", "n", "0"])], None)])
    # two bad cells: the earlier row wins, then the earlier column
    @example(files=[([GOOD, _row(["1", "tcp", "0x10", "n", "0"]),
                      _row(["", "tcp", "2", "n", "0"])], None)])
    @example(files=[([_row(["oops", "tcp", "0x10", "n", "0"])], None)])
    # a fault in a second file after a non-finite cell in the first
    @example(files=[([_row(["nan", "tcp", "2", "n", "0"])], None),
                    ([GOOD, _row(["1"])], None)])
    # a row over the field limit, after a good row and after a bad cell
    @example(files=[([GOOD, HUGE, GOOD], None)])
    @example(files=[([GOOD, _row(["oops", "tcp", "2", "n", "0"]), HUGE], None)])
    def test_same_table_or_error_as_the_row_by_row_parser(self, tmp_path_factory, files):
        paths = write_files(tmp_path_factory.mktemp("fuzz"), files)
        want = outcome(reference_load_csv, paths, TINY)
        for block in (1, 2, 3, data.CSV_BLOCK):
            drop_sidecars(paths)
            with mock.patch.object(data, "CSV_BLOCK", block):
                # a cache miss that parses, then a hit from what it stored
                for call in ("miss", "hit"):
                    assert outcome(load_csv, paths, TINY) == want, \
                        f"CSV_BLOCK={block}, {call}"

    def test_fault_before_a_non_utf8_byte_beyond_the_decode_buffer(self, tmp_path):
        # the decoder reads ahead in 8 KB chunks; the bad cell in row 2 is
        # parsed before the chunk holding the 0xff byte of row 1500 is decoded
        lines = [GOOD] * 2000
        lines[1] = _row(["oops", "tcp", "2", "n", "0"])
        paths = write_files(tmp_path, [(lines, len(GOOD) * 1499 + 2)])
        want = outcome(reference_load_csv, paths, TINY)
        assert want == ("error", f"{paths[0]} row 2, column 'a': "
                                 "unparseable numeric cell 'oops'")
        assert outcome(load_csv, paths, TINY) == want

    def test_cell_over_the_field_limit_names_file_and_row(self, tmp_path):
        paths = write_files(tmp_path, [(["\n", _row(HEADER), GOOD, GOOD, HUGE], None)])
        with pytest.raises(DataError) as e:
            load_csv(paths[0], TINY)
        assert str(e.value) == (f"{paths[0]} row 3: unreadable CSV row "
                                "(field larger than field limit (131072))")

    def test_rows_are_counted_across_blocks(self, tmp_path, monkeypatch):
        lines = ["\n", _row(HEADER)] + [GOOD, "\n"] * 5 + [_row(["1", "tcp", "x"])]
        paths = write_files(tmp_path, [(lines, None)])
        monkeypatch.setattr(data, "CSV_BLOCK", 2)
        with pytest.raises(DataError, match="row 6: expected 5 columns, found 3"):
            load_csv(paths[0], TINY)


@pytest.fixture()
def parsed(monkeypatch):
    """The files `load_csv` parses, in order, rather than read from a sidecar."""
    seen = []
    parse = data._parse_file
    monkeypatch.setattr(data, "_parse_file",
                        lambda p, *args: seen.append(p) or parse(p, *args))
    return seen


def _nan_duration(good):
    """The sidecar with a NaN in place of its first `duration` value."""
    name = b"duration"
    # past the u16 name length, the name, the u8 rank and its u32 dim
    at = good.index(struct.pack("<H", len(name)) + name) + 2 + len(name) + 1 + 4
    return good[:at] + struct.pack("<d", float("nan")) + good[at + 8:]


# each turns a good sidecar into one that must be parsed again and rewritten
DAMAGED = {
    "truncated": lambda good: good[:len(good) // 2],
    "empty": lambda good: b"",
    "garbage": lambda good: bytes(range(256)) * 8,
    "wrong-version": lambda good: good.replace(b"version=1\n", b"version=7\n", 1),
    "trailing-byte": lambda good: good + b"\0",
    "nan-cell": _nan_duration,
}


class TestTableCache:
    def test_hit_equals_a_fresh_parse(self, tmp_path, nsl_file, parsed):
        second = tmp_path / "kdd2.csv"
        write_nsl_csv(second, [("smurf", "3", {2: "ftp", 5: "0.25"}),
                               ("normal", "1", {1: "udp"})])
        paths = [nsl_file, str(second)]
        fresh = outcome(load_csv, paths, NSL_KDD)
        assert all(sidecar(p).is_file() for p in paths)
        assert outcome(load_csv, paths, NSL_KDD) == fresh
        assert fresh == outcome(reference_load_csv, paths, NSL_KDD)
        assert parsed == paths
        assert load_csv(nsl_file, NSL_KDD, paths[1:]).n_rows == 7

    def test_cold_parse_shares_one_object_per_value(self, tmp_path, parsed):
        path = tmp_path / "kdd.csv"
        write_nsl_csv(path, [("normal", "1", None), ("smurf", "2", {1: "udp"}),
                             ("normal", "3", None), ("smurf", "4", {1: "udp"})])
        raw = load_csv(str(path), NSL_KDD)
        assert parsed == [str(path)]
        for col in (raw.columns["protocol_type"], raw.columns["service"],
                    raw.label_values):
            first = {}
            assert all(first.setdefault(v, v) is v for v in col)
        drop_sidecars([str(path)])
        assert outcome(load_csv, [str(path)], NSL_KDD) == \
            outcome(reference_load_csv, [str(path)], NSL_KDD)

    def test_second_load_never_parses(self, nsl_file, monkeypatch):
        want = outcome(load_csv, [nsl_file], NSL_KDD)

        def refuse(*args):
            raise AssertionError("a cached file was parsed")

        monkeypatch.setattr(data, "_parse_file", refuse)
        assert outcome(load_csv, [nsl_file], NSL_KDD) == want

    def test_same_size_edit_is_parsed_again(self, nsl_file, parsed):
        load_csv(nsl_file, NSL_KDD)
        path = Path(nsl_file)
        before = path.stat()
        text = path.read_text()
        path.write_text(text.replace("\n3,", "\n4,", 1))
        # same size and same mtime: only the content tells the edit
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        raw = load_csv(nsl_file, NSL_KDD)
        assert raw.columns["duration"].tolist() == [0, 0, 0, 4, 0]
        assert parsed == [nsl_file, nsl_file]

    @pytest.mark.parametrize("damage", DAMAGED.values(), ids=DAMAGED)
    def test_bad_sidecar_is_parsed_again_and_rewritten(self, nsl_file, parsed, damage):
        want = outcome(load_csv, [nsl_file], NSL_KDD)
        good = sidecar(nsl_file).read_bytes()
        bad = damage(good)
        assert bad != good
        sidecar(nsl_file).write_bytes(bad)
        assert outcome(load_csv, [nsl_file], NSL_KDD) == want
        assert sidecar(nsl_file).read_bytes() == good
        assert outcome(load_csv, [nsl_file], NSL_KDD) == want
        assert parsed == [nsl_file, nsl_file]

    def test_sidecar_of_another_schema_is_parsed_again_and_rewritten(self, nsl_file,
                                                                     parsed):
        other = replace(NSL_KDD, label_aliases={"neptune": "smurf"})
        assert load_csv(nsl_file, other).label_values[1] == "smurf"
        stale = sidecar(nsl_file).read_bytes()
        want = outcome(reference_load_csv, [nsl_file], NSL_KDD)
        assert outcome(load_csv, [nsl_file], NSL_KDD) == want
        assert sidecar(nsl_file).read_bytes() != stale
        assert outcome(load_csv, [nsl_file], NSL_KDD) == want
        assert parsed == [nsl_file, nsl_file]

    def test_sidecar_path_that_cannot_be_replaced(self, nsl_file, parsed):
        # tests run as root, so a read-only mode would not stop the write
        sidecar(nsl_file).mkdir()
        want = outcome(reference_load_csv, [nsl_file], NSL_KDD)
        for _ in range(2):
            assert outcome(load_csv, [nsl_file], NSL_KDD) == want
        assert parsed == [nsl_file, nsl_file]
        # the temporary file was removed
        assert sorted(os.listdir(Path(nsl_file).parent)) == ["kdd.csv", "kdd.csv.lunetcache"]

    @pytest.mark.parametrize("cell", ["oops", "nan"])
    def test_file_with_an_error_leaves_no_sidecar(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        write_nsl_csv(path, [("normal", "20", None), ("neptune", "18", {4: cell})])
        errors = []
        for _ in range(2):
            with pytest.raises(DataError) as e:
                load_csv(str(path), NSL_KDD)
            errors.append(str(e.value))
            assert os.listdir(tmp_path) == ["bad.csv"]
        assert errors[0] == errors[1]
        assert "bad.csv row 2, column 'src_bytes'" in errors[0]


def reference_encode(raw):
    """One-hot encoding as one block per feature column, then `np.hstack`."""
    blocks = []
    n = raw.n_rows
    for name, kind in raw.schema.feature_columns:
        col = raw.columns[name]
        if kind == NUMERIC:
            blocks.append(np.asarray(col, dtype=np.float64).reshape(n, 1))
        else:
            vocab = sorted(set(col))
            index = {v: i for i, v in enumerate(vocab)}
            block = np.zeros((n, len(vocab)))
            block[np.arange(n), [index[v] for v in col]] = 1.0
            blocks.append(block)
    return np.hstack(blocks)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def numeric_fixture():
    """Columns of mixed scale, one constant column and scattered -0.0 cells."""
    x = np.random.default_rng(7).normal(3.0, 50.0, size=(37, 6))
    x[:, 2] = 4.25
    x[::4, 0] = -0.0
    x[1::5, 3] = 0.0
    x[:, 5] = np.where(np.arange(37) % 2, -0.0, 0.0)
    return x


FIT_SETS = [np.array([5]), np.arange(37), np.arange(0, 37, 3)]


class TestInPlaceNumerics:
    @pytest.mark.parametrize("fit_rows", FIT_SETS, ids=["one-row", "all", "strided"])
    def test_fit_equals_numpy_mean_and_std(self, fit_rows):
        x = numeric_fixture()
        before = x.copy()
        mean, std = fit_standardization(x, fit_rows)
        assert_bitwise(x, before)  # the fit leaves `features` as it was
        sub = before[fit_rows]
        assert_bitwise(mean, sub.mean(axis=0))
        assert_bitwise(std, sub.std(axis=0))

    @pytest.mark.parametrize("block", [1, 4, 5, 512])
    @pytest.mark.parametrize("pick", ["one-row", "all", "shuffled", "repeats"])
    def test_fit_in_blocks_equals_numpy_mean_and_std(self, monkeypatch, block, pick):
        # block counts that do not divide the row count, a constant column
        # and a one-row fit set
        rng = np.random.default_rng(11)
        x = rng.normal(-2.0, 30.0, size=(1283, 7)) * rng.integers(0, 2, size=(1283, 7))
        x[:, 4] = 0.25
        fit_rows = {"one-row": np.array([1282]), "all": np.arange(1283),
                    "shuffled": rng.permutation(1283)[:1131],
                    "repeats": rng.integers(0, 1283, size=1029)}[pick]
        monkeypatch.setattr(data, "FIT_BLOCK", block)
        mean, std = fit_standardization(x, fit_rows)
        assert_bitwise(mean, x[fit_rows].mean(axis=0))
        assert_bitwise(std, x[fit_rows].std(axis=0))
        assert np.all(std[4] == 0.0)

    @pytest.mark.parametrize("fit_rows", [[], [0, 37], [-1]])
    def test_fit_rows_must_index_the_features(self, fit_rows):
        with pytest.raises((ValueError, IndexError)):
            fit_standardization(numeric_fixture(), np.array(fit_rows, dtype=np.int64))

    @pytest.mark.parametrize("fit_rows", FIT_SETS, ids=["one-row", "all", "strided"])
    def test_apply_equals_subtract_then_divide(self, fit_rows):
        x = numeric_fixture()
        mean, std = fit_standardization(x, fit_rows)
        const = std < 1e-12
        want = (x - mean) / np.where(const, 1.0, std)
        want[:, const] = 0.0
        assert_bitwise(apply_standardization(x, mean, std), want)

    def test_encode_equals_per_column_blocks(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        raw.columns["dst_bytes"][[1, 3]] = -0.0
        features, _ = encode_categorical(raw)
        assert features.flags.c_contiguous
        assert_bitwise(features, reference_encode(raw))


# A table small enough that a few rows cross the split: three numeric columns
# and 3 + 4 categorical values make 10 encoded columns of
# 8 bytes, so with BLOCK_BYTES at 5 rows encode writes 5-row blocks and a
# table of SPLIT_ROWS rows or more holds 2 x BLOCK_BYTES.
HALVES_SCHEMA = DatasetSchema(
    columns=(("a", NUMERIC), ("proto", CATEGORICAL), ("b", NUMERIC),
             ("flag", CATEGORICAL), ("c", NUMERIC), ("label", LABEL)),
    class_names_multi=("Normal",), class_map_multi={"normal": "Normal"}, label_aliases={})
HALVES_ROW_BYTES = 10 * 8
SPLIT_ROWS = 10


def halves_raw(n):
    """`n` rows of HALVES_SCHEMA with -0.0 cells, every categorical value
    from 4 rows on, and a column constant on its even rows."""
    rng = np.random.default_rng(n)
    a = rng.normal(0.0, 40.0, n)
    a[::3] = -0.0
    b = rng.normal(5.0, 1.0, n)
    b[1::4] = 0.0
    order = rng.permutation(n)
    return RawTable(schema=HALVES_SCHEMA, label_values=["normal"] * n, columns={
        "a": a, "b": b, "c": np.where(np.arange(n) % 2, 7.0, 4.25),
        "proto": [("icmp", "tcp", "udp")[i % 3] for i in order],
        "flag": [("REJ", "S0", "SF", "SH")[i % 4] for i in order]})


class TestByHalves:
    """Encode and standardize write the second half of a table's rows on the
    worker where the table holds 2 x BLOCK_BYTES and the worker pays; either
    way every element has today's plain formula's bits."""

    @pytest.fixture()
    def submits(self, monkeypatch, request):
        monkeypatch.setattr(layers, "QUEUE_PRODUCTS", request.param)
        monkeypatch.setattr(layers, "BLOCK_BYTES", 5 * HALVES_ROW_BYTES)
        calls = []
        submit = layers._submit

        def counting(fn):
            calls.append(fn)
            return submit(fn)

        monkeypatch.setattr(layers, "_submit", counting)
        return request.param, calls

    @pytest.mark.parametrize("submits", [True, False], indirect=True,
                             ids=["worker", "inline"])
    @pytest.mark.parametrize("n", [1, SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 37])
    def test_encode_equals_one_block_per_column(self, submits, n):
        queue, calls = submits
        raw = halves_raw(n)
        features, columns = encode_categorical(raw)
        assert_bitwise(features, reference_encode(raw))
        if n >= 4:  # every categorical value is there
            assert columns == ["a", "proto=icmp", "proto=tcp", "proto=udp", "b", "flag=REJ",
                               "flag=S0", "flag=SF", "flag=SH", "c"]
        assert len(calls) == int(queue and n >= SPLIT_ROWS)

    @pytest.mark.parametrize("submits", [True, False], indirect=True,
                             ids=["worker", "inline"])
    @pytest.mark.parametrize("n", [0, 1, SPLIT_ROWS - 1, SPLIT_ROWS, SPLIT_ROWS + 1, 37])
    def test_apply_equals_subtract_then_divide(self, submits, n):
        queue, calls = submits
        table, _ = encode_categorical(halves_raw(37))
        mean, std = fit_standardization(table, np.arange(0, 37, 2))
        assert std[9] == 0.0  # constant on the fit rows, not on the others
        del calls[:]
        x = table[:n].copy()
        want = x - mean
        want /= np.where(std < 1e-12, 1.0, std)
        want[:, std < 1e-12] = 0.0
        assert_bitwise(apply_standardization(x, mean, std), want)
        assert len(calls) == int(queue and n >= SPLIT_ROWS)

    def test_encode_of_no_rows_names_the_empty_column(self):
        with pytest.raises(DataError, match="categorical column 'proto' is empty"):
            encode_categorical(halves_raw(0))


class TestEncodeCategorical:
    def test_lexicographic_one_hot(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        features, cols = encode_categorical(raw)
        # protocol_type vocabulary {tcp, udp, icmp} -> icmp, tcp, udp
        proto_cols = [c for c in cols if c.startswith("protocol_type=")]
        assert proto_cols == ["protocol_type=icmp", "protocol_type=tcp",
                              "protocol_type=udp"]
        i = cols.index("protocol_type=icmp")
        # row 0 is tcp
        assert features[0, i:i + 3].tolist() == [0.0, 1.0, 0.0]

    def test_single_valued_column_all_ones(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        features, cols = encode_categorical(raw)
        i = cols.index("flag=SF")
        assert np.all(features[:, i] == 1.0)

    def test_indicator_rows_partition_of_unity(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        features, cols = encode_categorical(raw)
        for prefix in ("protocol_type=", "service=", "flag="):
            block = [j for j, c in enumerate(cols) if c.startswith(prefix)]
            np.testing.assert_array_equal(features[:, block].sum(axis=1), 1.0)

    def test_encoded_width(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        features, cols = encode_categorical(raw)
        # 38 numeric + |protocol|=3 + |service|=1 + |flag|=1
        assert features.shape[1] == len(cols) == 38 + 3 + 1 + 1


class TestMakeLabels:
    def test_binary_and_multi(self, nsl_file):
        raw = load_csv(nsl_file, NSL_KDD)
        binary, names_b = make_labels(raw, "binary")
        assert names_b == ["normal", "attack"]
        assert binary.tolist() == [0, 1, 1, 1, 1]
        multi, names_m = make_labels(raw, "multi")
        assert names_m == ["Normal", "DoS", "Probe", "R2L", "U2R"]
        assert multi.tolist() == [0, 1, 2, 3, 4]  # neptune=DoS, satan=Probe, ...

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_nsl_csv(path, [("xyz", "1", None)])
        raw = load_csv(str(path), NSL_KDD)
        with pytest.raises(DataError, match="xyz"):
            make_labels(raw, "binary")

    def test_nsl_kdd_covers_39_attacks(self):
        attacks = [v for v in NSL_KDD.class_map_multi if v != "normal"]
        assert len(attacks) == 39

    def test_unsw_vocabulary(self):
        assert len(UNSW_NB15.class_names_multi) == 10
        assert UNSW_NB15.class_names_multi[0] == "Normal"


class TestStandardize:
    def test_population_std(self):
        x = np.array([[2.0], [4.0], [6.0]])
        mean, std = fit_standardization(x, np.arange(3))
        out = apply_standardization(x, mean, std)
        np.testing.assert_allclose(out.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_maps_to_zero(self):
        x = np.full((4, 1), 3.0)
        mean, std = fit_standardization(x, np.arange(4))
        np.testing.assert_array_equal(apply_standardization(x, mean, std), 0.0)

    def test_validation_rows_use_train_stats(self):
        x = np.array([[0.0], [2.0], [100.0]])
        mean, std = fit_standardization(x, np.array([0, 1]))
        out = apply_standardization(x, mean, std)
        # fit on rows 0-1: mean 1, std 1 -> row 2 becomes 99, not its own z-score
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0, 99.0])

    def test_train_fold_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(64, 5))
        fit_rows = np.arange(40)
        mean, std = fit_standardization(x, fit_rows)
        out = apply_standardization(x, mean, std)[fit_rows]
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-6


class TestStratifiedKfold:
    def test_perfect_stratification(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        plan = stratified_kfold(labels, 2, seed=0)
        for fold in range(2):
            val = labels[plan.val_indices(fold)]
            assert (val == 0).sum() == 2 and (val == 1).sum() == 2

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_balance_across_fold_counts(self, k):
        labels = np.random.default_rng(k).integers(0, 3, size=200)
        plan = stratified_kfold(labels, k, seed=1)
        for c in range(3):
            n_c = (labels == c).sum()
            counts = [((labels == c) & (plan.assignments == f)).sum()
                      for f in range(k)]
            assert max(counts) - min(counts) <= 1
            assert all(cnt in (n_c // k, -(-n_c // k)) for cnt in counts)

    def test_small_class_error_names_class(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(DataError, match="class 1"):
            stratified_kfold(labels, 4, seed=0)

    def test_small_class_error_uses_the_class_name(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(DataError) as e:
            stratified_kfold(labels, 4, 0, ["normal", "attack"])
        assert str(e.value) == "class 'attack' has 3 samples, fewer than k=4"

    def test_partition(self):
        labels = np.random.default_rng(3).integers(0, 4, size=97)
        plan = stratified_kfold(labels, 5, seed=2)
        union = np.concatenate([plan.val_indices(f) for f in range(5)])
        assert sorted(union) == list(range(97))
        for f in range(5):
            tr, va = set(plan.train_indices(f)), set(plan.val_indices(f))
            assert tr | va == set(range(97)) and not (tr & va)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_determinism(self, seed):
        labels = np.arange(40) % 4
        a = stratified_kfold(labels, 4, seed)
        b = stratified_kfold(labels, 4, seed)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestSubsample:
    def test_proportions_and_size(self):
        labels = np.array([0] * 900 + [1] * 100)
        idx = stratified_subsample(labels, 100, seed=0)
        assert len(idx) == 100
        assert abs((labels[idx] == 1).sum() - 10) <= 1

    def test_small_class_survives(self):
        labels = np.array([0] * 995 + [1] * 5)
        idx = stratified_subsample(labels, 50, seed=0)
        assert (labels[idx] == 1).sum() >= 1


class TestSynthDataset:
    def test_nearest_centroid_separability(self):
        table = synth_dataset(2, 64, 8, 10.0, seed=1)
        centroids = np.stack([table.features[table.labels == c].mean(axis=0)
                              for c in range(2)])
        d = np.linalg.norm(table.features[:, None, :] - centroids[None], axis=2)
        assert np.all(np.argmin(d, axis=1) == table.labels)

    def test_determinism(self):
        a = synth_dataset(3, 50, 4, 2.0, seed=9)
        b = synth_dataset(3, 50, 4, 2.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_all_classes_covered(self):
        table = synth_dataset(5, 100, 4, 2.0, seed=2)
        assert set(table.labels) == set(range(5))

    def test_separation_must_be_positive(self):
        with pytest.raises(ValueError):
            synth_dataset(2, 10, 4, 0.0, seed=0)
