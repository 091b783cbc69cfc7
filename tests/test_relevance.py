"""Relevance pipeline: hand-computed fixtures, invariants, report files."""

import csv
import json

import numpy as np
import pytest

from eegfusion.connectivity import FEATURE_ORDER, WindowTensor
from eegfusion.model import ModelConfig, build_fusion_model
from eegfusion.relevance import (
    CLASS_NAMES,
    DenseWeights,
    EmbeddingBatch,
    activation_potentials,
    collect_embeddings,
    contributions,
    feature_relevance,
    first_dense_weights,
    load_report_json,
    net_contribution,
    relevance_report,
    write_report_csv,
    write_report_json,
)


def batch_of(v, group_map=(0, 1)):
    return EmbeddingBatch(
        V=np.asarray(v, dtype=float), class_label=1, group_map=np.asarray(group_map)
    )


def small_model(scheme=2, **over):
    cfg = ModelConfig(
        scheme=scheme, n_channels=2, subwindows=3, n_bands=2, n_features=7,
        embed_dim=2, lstm_hidden=2, dense_sizes=(3,), **over,
    )
    return build_fusion_model(cfg)


def small_dataset(cfg, n_per_class=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        WindowTensor(
            values=rng.standard_normal(cfg.tensor_shape) + 0.5 * (i % 2),
            label=i % 2,
            source_id=f"w{i}",
        )
        for i in range(2 * n_per_class)
    ]


class TestActivationPotentials:
    def test_two_sample_sign_cancellation_fixture(self):
        # both samples land at |+-1| = 1, so averaging the magnitudes keeps
        # the second input at potential 1 even though its signs cancel
        w = DenseWeights(W=np.array([[1.0], [-1.0]]), b=np.array([0.0]))
        p = activation_potentials(batch_of([[1.0, 1.0], [1.0, -1.0]]), w)
        assert np.array_equal(p, [[1.0], [1.0]])

    def test_bias_only_fixture(self):
        w = DenseWeights(W=np.array([[0.5], [0.5]]), b=np.array([2.0]))
        p = activation_potentials(batch_of(np.zeros((3, 2))), w)
        assert np.array_equal(p, [[2.0], [2.0]])

    def test_matches_direct_loop(self):
        rng = np.random.default_rng(5)
        v, W, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal(2)
        p = activation_potentials(batch_of(v, group_map=np.zeros(3)), DenseWeights(W=W, b=b))
        expected = np.zeros((3, 2))
        for k in range(4):
            for i in range(3):
                for j in range(2):
                    expected[i, j] += abs(v[k, i] * W[i, j] + b[j])
        assert np.allclose(p, expected / 4, rtol=0, atol=1e-15)

    def test_shape_checks(self):
        w = DenseWeights(W=np.zeros((2, 1)), b=np.zeros(1))
        with pytest.raises(ValueError, match="batch"):
            activation_potentials(batch_of(np.zeros(2)), w)
        with pytest.raises(ValueError, match="N_in"):
            activation_potentials(batch_of(np.zeros((2, 3))), w)


class TestContributions:
    def test_column_fixture(self):
        c = contributions(np.array([[3.0], [1.0]]))
        assert np.array_equal(c, [[0.75], [0.25]])

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 2.0, (6, 4))
        c = contributions(p)
        assert np.allclose(c.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_zero_column_rejected(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="hidden neuron 1"):
            contributions(p)


class TestNetContribution:
    def test_rectified_row_sum_fixture(self):
        c = np.array([[0.75, 0.2], [0.25, 0.8]])
        assert np.array_equal(net_contribution(c), [0.95, 1.05])

    def test_negative_entries_dropped(self):
        c = np.array([[0.5, -0.3], [-0.1, 0.7]])
        assert np.array_equal(net_contribution(c), [0.5, 0.7])

    def test_total_mass_equals_hidden_width(self):
        # nonnegative contributions put exactly one unit of mass per neuron
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 2.0, (8, 5))
        c_plus = net_contribution(contributions(p))
        assert c_plus.sum() == pytest.approx(5.0, abs=1e-9)


class TestFeatureRelevance:
    def test_two_feature_fixture(self):
        rel = feature_relevance(
            np.array([0.95, 1.05]), np.array([0, 1]), feature_names=("a", "b")
        )
        assert abs(rel["percent"]["a"] - 47.5) < 1e-12
        assert abs(rel["percent"]["b"] - 52.5) < 1e-12
        assert rel["raw"] == {"a": 0.95, "b": 1.05}

    def test_percentages_sum_to_hundred(self):
        rng = np.random.default_rng(2)
        c_plus = rng.uniform(0.0, 1.0, 7 * 3)
        rel = feature_relevance(c_plus, np.repeat(np.arange(7), 3))
        assert sum(rel["percent"].values()) == pytest.approx(100.0, abs=1e-6)
        assert set(rel["percent"]) == set(FEATURE_ORDER)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="group map"):
            feature_relevance(np.zeros(4), np.zeros(5))

    def test_zero_grand_total_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            feature_relevance(np.zeros(14), np.repeat(np.arange(7), 2))


class TestCollectEmbeddings:
    def test_default_scheme2_width(self):
        m = build_fusion_model(ModelConfig(scheme=2, n_channels=2, subwindows=2))
        ds = [
            WindowTensor(
                values=np.random.default_rng(i).standard_normal(m.cfg.tensor_shape),
                label=i % 2,
                source_id=f"w{i}",
            )
            for i in range(20)
        ]
        batch = collect_embeddings(m, ds, 1)
        assert batch.V.shape == (10, 7 * 16)
        assert np.array_equal(batch.group_map, np.repeat(np.arange(7), 16))

    def test_missing_class_rejected(self):
        m = small_model()
        ds = [t for t in small_dataset(m.cfg) if t.label == 1]
        with pytest.raises(ValueError, match="labeled"):
            collect_embeddings(m, ds, 0)

    def test_bad_class_label(self):
        m = small_model()
        with pytest.raises(ValueError, match="class_label"):
            collect_embeddings(m, small_dataset(m.cfg), 2)


class TestRelevanceReport:
    def test_covers_both_classes_and_sums_to_hundred(self):
        m = small_model()
        ds = small_dataset(m.cfg)
        report = relevance_report(m, ds, config_hash="abc123")
        assert set(report.classes) == {"non_seizure", "seizure"}
        assert report.feature_order == FEATURE_ORDER
        assert report.config_hash == "abc123"
        for payload in report.classes.values():
            assert payload.n_samples == 6
            assert len(payload.c_plus) == m.n_embed
            assert sum(payload.percent.values()) == pytest.approx(100.0, abs=1e-6)

    def test_sample_order_invariance(self):
        m = small_model()
        ds = small_dataset(m.cfg)
        forward = relevance_report(m, ds)
        backward = relevance_report(m, list(reversed(ds)))
        for cls in forward.classes:
            for name in FEATURE_ORDER:
                assert forward.classes[cls].percent[name] == pytest.approx(
                    backward.classes[cls].percent[name], abs=1e-12
                )

    def test_duplicating_dataset_changes_nothing(self):
        m = small_model()
        ds = small_dataset(m.cfg)
        once = relevance_report(m, ds)
        twice = relevance_report(m, ds + ds)
        for cls in once.classes:
            for name in FEATURE_ORDER:
                assert once.classes[cls].percent[name] == pytest.approx(
                    twice.classes[cls].percent[name], abs=1e-12
                )

    @pytest.mark.parametrize("scheme", [3, 4])
    def test_fused_schemes_rejected(self, scheme):
        m = small_model(scheme=scheme)
        with pytest.raises(ValueError, match="scheme"):
            relevance_report(m, small_dataset(m.cfg))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            relevance_report(small_model(), [])

    def test_first_dense_weights_are_a_copy(self):
        m = small_model()
        w = first_dense_weights(m)
        w.W[:] = 0.0
        assert np.any(m.head[0].W.view(m.params) != 0.0)


class TestReportFiles:
    def test_json_round_trip(self, tmp_path):
        m = small_model()
        report = relevance_report(m, small_dataset(m.cfg), config_hash="deadbeef")
        path = tmp_path / "relevance.json"
        write_report_json(report, path)
        back = load_report_json(path)
        assert back.feature_order == report.feature_order
        assert back.config_hash == "deadbeef"
        assert back.classes == report.classes

    def test_json_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"classes": {}}))
        with pytest.raises(ValueError, match="feature_order"):
            load_report_json(path)

    @pytest.mark.parametrize("text, message", [
        ("{ nope", "invalid JSON: "),
        (json.dumps("feature_order classes"), "<root>: must be a JSON object"),
        ("[]", "<root>: must be a JSON object"),
    ], ids=["invalid", "string", "list"])
    def test_unreadable_report_names_the_file(self, tmp_path, text, message):
        # a string holding both key names passed the key check by substring
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_report_json(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_csv_layout_and_values(self, tmp_path):
        m = small_model()
        report = relevance_report(m, small_dataset(m.cfg))
        path = tmp_path / "relevance.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "class", "percent", "raw_c_plus"]
        assert len(rows) == 1 + 2 * len(FEATURE_ORDER)
        # class blocks are sorted; values survive the repr round trip
        assert rows[1][1] == "non_seizure"
        for name, cls, percent, raw in rows[1:]:
            assert float(percent) == report.classes[cls].percent[name]
            assert float(raw) == report.classes[cls].raw[name]

    @pytest.mark.parametrize("write", [write_report_json, write_report_csv])
    def test_failed_rename_leaves_the_earlier_file_intact(self, write, tmp_path, monkeypatch):
        first, second = (small_model(seed=seed) for seed in (0, 1))
        path, probe = tmp_path / "relevance.out", tmp_path / "probe.out"
        write(relevance_report(first, small_dataset(first.cfg)), path)
        report = relevance_report(second, small_dataset(second.cfg))
        write(report, probe)
        before = path.read_bytes()
        assert probe.read_bytes() != before  # the failed write would change the file

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr("eegfusion.util.os.replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            write(report, path)
        assert path.read_bytes() == before

    def test_class_names_constant(self):
        assert CLASS_NAMES == {0: "non_seizure", 1: "seizure"}
