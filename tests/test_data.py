import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunet.data import (NSL_KDD, UNSW_NB15, DataError, encode_categorical,
                        fit_standardization, apply_standardization, load_csv,
                        make_labels, standardize, stratified_kfold,
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
        table = synth_dataset(2, 3, 1, 1.0, 0)
        table.features[...] = x
        out = standardize(table, np.array([0, 1]))
        # fit on rows 0-1: mean 1, std 1 -> row 2 becomes 99, not its own z-score
        np.testing.assert_allclose(out.features.ravel(), [-1.0, 1.0, 99.0])

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
