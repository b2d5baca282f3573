import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lunet.metrics import (ConfusionMatrix, EvalReport, MetricSet,
                           aggregate_folds, binary_metrics, confusion,
                           confusion_csv, per_class_metrics, render_report)
from report_parser import parse_report

BIN = ["normal", "attack"]


def binary_cm(tn, fp, fn, tp):
    return ConfusionMatrix(counts=np.array([[tn, fp], [fn, tp]],
                                           dtype=np.int64),
                           class_names=list(BIN))


class TestBinaryMetrics:
    def test_worked_example(self):
        ms = binary_metrics(binary_cm(tn=95, fp=5, fn=10, tp=90))
        assert (ms.tp, ms.tn, ms.fp, ms.fn) == (90, 95, 5, 10)
        assert ms.dr == pytest.approx(0.9000, abs=1e-12)
        assert ms.fpr == pytest.approx(0.0500, abs=1e-12)
        assert ms.acc == pytest.approx(0.9250, abs=1e-12)

    def test_all_correct(self):
        ms = binary_metrics(binary_cm(tn=50, fp=0, fn=0, tp=50))
        assert ms.acc == 1.0 and ms.dr == 1.0 and ms.fpr == 0.0

    def test_no_attacks_present_dr_absent(self):
        ms = binary_metrics(binary_cm(tn=40, fp=2, fn=0, tp=0))
        assert ms.dr is None
        assert ms.fpr == pytest.approx(2 / 42)

    def test_no_normals_present_fpr_absent(self):
        ms = binary_metrics(binary_cm(tn=0, fp=0, fn=3, tp=7))
        assert ms.fpr is None
        assert ms.dr == pytest.approx(0.7)

    def test_multiclass_collapse_counts_cross_attack_confusions_as_tp(self):
        # actual DoS predicted Probe is still a detected attack
        counts = np.array([[8, 1, 1],
                           [0, 5, 2],
                           [1, 0, 4]], dtype=np.int64)
        cm = ConfusionMatrix(counts=counts, class_names=["Normal", "DoS", "Probe"])
        ms = binary_metrics(cm)
        assert ms.tp == 5 + 2 + 0 + 4
        assert ms.fn == 0 + 1
        assert ms.fp == 1 + 1
        assert ms.tn == 8
        assert ms.acc == pytest.approx((11 + 8) / 22)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_identities_hold_bit_for_bit(self, preds):
        actual = np.arange(len(preds)) % 4
        cm = confusion(actual, np.array(preds), ["Normal", "a", "b", "c"])
        ms = binary_metrics(cm)
        total = ms.tp + ms.tn + ms.fp + ms.fn
        assert total == len(preds)
        assert ms.acc == (ms.tp + ms.tn) / total
        if ms.dr is not None:
            assert ms.dr == ms.tp / (ms.tp + ms.fn)
        if ms.fpr is not None:
            assert ms.fpr == ms.fp / (ms.fp + ms.tn)


class TestConfusion:
    def test_counts_and_orientation(self):
        cm = confusion([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], BIN)
        # rows are actual, columns are predicted
        np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])
        assert cm.counts.sum() == 5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion([0, 1], [0], BIN)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion([0, 2], [0, 1], BIN)

    def test_row_permutation_of_samples_is_invariant(self):
        actual = np.array([0, 1, 2, 1, 0, 2, 2])
        pred = np.array([0, 1, 1, 1, 2, 2, 0])
        perm = np.random.default_rng(0).permutation(len(actual))
        a = confusion(actual, pred, ["x", "y", "z"])
        b = confusion(actual[perm], pred[perm], ["x", "y", "z"])
        np.testing.assert_array_equal(a.counts, b.counts)


class TestPerClass:
    def test_three_class_one_vs_rest(self):
        counts = np.array([[2, 1, 0],
                           [0, 3, 0],
                           [1, 0, 1]], dtype=np.int64)
        cm = ConfusionMatrix(counts=counts, class_names=["A", "B", "C"])
        out = per_class_metrics(cm)
        dr_a, fpr_a = out["A"]
        assert dr_a == pytest.approx(2 / 3)
        assert fpr_a == pytest.approx(1 / 5)
        dr_b, fpr_b = out["B"]
        assert dr_b == 1.0
        assert fpr_b == pytest.approx(1 / 5)

    def test_absent_class_has_no_dr(self):
        counts = np.array([[3, 0], [0, 0]], dtype=np.int64)
        cm = ConfusionMatrix(counts=counts, class_names=BIN)
        assert per_class_metrics(cm)["attack"][0] is None

    def test_two_class_attack_row_matches_binary_metrics(self):
        cm = binary_cm(tn=95, fp=5, fn=10, tp=90)
        ms = binary_metrics(cm)
        dr, fpr = per_class_metrics(cm)["attack"]
        assert dr == ms.dr and fpr == ms.fpr

    def test_needs_two_classes(self):
        cm = ConfusionMatrix(counts=np.array([[4]]), class_names=["only"])
        with pytest.raises(ValueError):
            per_class_metrics(cm)


def acc_only(acc, dr=None, fpr=None):
    return MetricSet(tp=0, tn=0, fp=0, fn=0, acc=acc, dr=dr, fpr=fpr)


class TestAggregate:
    def test_unweighted_mean(self):
        agg = aggregate_folds([acc_only(0.98), acc_only(1.00)])
        assert agg.acc == pytest.approx(0.99, abs=1e-12)
        assert agg.folds == 2

    def test_published_kfold_accuracy_column(self):
        accs = [99.09, 99.11, 99.30, 99.34, 99.36]
        agg = aggregate_folds([acc_only(a) for a in accs])
        assert agg.acc == pytest.approx(99.24, abs=5e-3)

    def test_absent_metrics_excluded_with_counts(self):
        folds = [acc_only(0.9, dr=0.8, fpr=0.1),
                 acc_only(0.8, dr=None, fpr=0.3),
                 acc_only(0.7, dr=0.6, fpr=None)]
        agg = aggregate_folds(folds)
        assert agg.dr == pytest.approx(0.7)
        assert agg.fpr == pytest.approx(0.2)
        assert (agg.folds, agg.dr_folds, agg.fpr_folds) == (3, 2, 2)

    def test_all_absent_stays_absent(self):
        agg = aggregate_folds([acc_only(0.5), acc_only(0.6)])
        assert agg.dr is None and agg.fpr is None
        assert agg.dr_folds == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([])


def sample_report(with_per_class=True):
    cms = [confusion([0, 1, 1, 0], [0, 1, 0, 0], BIN),
           confusion([0, 0, 1, 1], [0, 1, 1, 1], BIN)]
    per_fold = [(i, binary_metrics(cm), cm) for i, cm in enumerate(cms)]
    agg = aggregate_folds([ms for _, ms, _ in per_fold])
    per_class = per_class_metrics(cms[0]) if with_per_class else {}
    return EvalReport(per_fold=per_fold, aggregate=agg, per_class=per_class)


class TestRendering:
    def test_jsonl_round_trip(self):
        report = sample_report()
        text = render_report(report, "json-lines")
        back = parse_report(text)
        assert back.aggregate == report.aggregate
        assert len(back.per_fold) == 2
        for (fa, ma, ca), (fb, mb, cb) in zip(report.per_fold, back.per_fold):
            assert fa == fb
            assert (ma.tp, ma.tn, ma.fp, ma.fn) == (mb.tp, mb.tn, mb.fp, mb.fn)
            # float metrics survive at 4-decimal precision
            assert mb.acc == round(ma.acc, 4)
            np.testing.assert_array_equal(ca.counts, cb.counts)
        assert back.per_class.keys() == report.per_class.keys()

    def test_metrics_rounded_to_four_decimals(self):
        text = render_report(sample_report(), "json-lines")
        import json
        rec = json.loads(text.splitlines()[0])
        assert rec["dr"] == 0.5  # 1/2 exactly
        assert rec["acc"] == 0.75

    def test_csv_headers_and_per_class_section(self):
        text = render_report(sample_report(), "csv")
        lines = text.splitlines()
        assert lines[0] == "fold,tp,tn,fp,fn,acc,dr,fpr"
        assert "aggregate_acc,aggregate_dr,aggregate_fpr,folds,dr_folds,fpr_folds" in lines
        assert "class,dr,fpr" in lines

    def test_csv_omits_empty_per_class_section(self):
        text = render_report(sample_report(with_per_class=False), "csv")
        assert "class,dr,fpr" not in text

    def test_pretty_table_has_avg_row(self):
        text = render_report(sample_report(), "pretty-table")
        assert any(line.strip().startswith("avg") for line in text.splitlines())

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(sample_report(), "xml")

    def test_confusion_csv(self):
        cm = confusion([0, 1, 1], [0, 1, 0], BIN)
        lines = confusion_csv(cm).splitlines()
        assert lines[0] == "actual\\predicted,normal,attack"
        assert lines[1] == "normal,1,0"
        assert lines[2] == "attack,1,1"

    def test_absent_metric_serializes_as_null_and_back(self):
        cm = confusion([0, 0], [0, 1], BIN)
        ms = binary_metrics(cm)
        report = EvalReport(per_fold=[(0, ms, cm)],
                            aggregate=aggregate_folds([ms]), per_class={})
        back = parse_report(render_report(report, "json-lines"))
        assert back.per_fold[0][1].dr is None
        assert back.aggregate.dr is None
