"""Loaders, splits, lambda tuning, and the evaluation grid."""

import threading
from pathlib import Path

import numpy as np
import pytest

from robust_trees import dataeng
from robust_trees.criteria import CriterionSpec
from robust_trees.dataeng import (
    CriterionSetting,
    DataFormatError,
    Dataset,
    ExperimentConfig,
    ModelConfig,
    aggregate,
    apply_label_map,
    evaluate,
    load_csv,
    load_dataset,
    load_libsvm,
    train_test_split,
    tune_lambda,
    write_records_csv,
    _fit_model,
)
from robust_trees.noise import NoiseSpec
from synth import gaussian_blobs, separable_categorical, write_csv, write_libsvm


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,class\n0,0.5,x\n1,0.25,y\n2,0.1,x\n")
        ds = load_csv(path, label_column="class")
        assert ds.features.shape == (3, 2)
        assert ds.class_names == ("x", "y")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('a,label\n1.5,"with, comma"\n2.5,plain\n')
        ds = load_csv(path, label_column="label")
        assert ds.class_names == ("with, comma", "plain")

    def test_no_header_integer_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2,0\n3,4,1\n")
        ds = load_csv(path, label_column=2, header=False)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,label\n1,x\noops,y\n")
        with pytest.raises(DataFormatError, match=":3:"):
            load_csv(path)

    def test_inconsistent_width_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n1,2,x\n1,y\n")
        with pytest.raises(DataFormatError, match=":3:"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,label\ninf,x\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="no column"):
            load_csv(path, label_column="class")


class TestLoadLibsvm:
    def test_sparse_line(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 3:0.5\n2 1:1 2:2\n")
        ds = load_libsvm(path, n_features=4)
        assert ds.features.tolist() == [[0, 0, 0.5, 0], [1, 2, 0, 0]]
        assert ds.class_names == ("1", "2")

    def test_width_inferred_from_max_index(self, tmp_path):
        path = tmp_path / "narrow.libsvm"
        path.write_text("1 2:1\n2 5:3\n")
        assert load_libsvm(path).n_features == 5

    def test_label_only_line(self, tmp_path):
        path = tmp_path / "bare.libsvm"
        path.write_text("1 1:1\n2\n")
        ds = load_libsvm(path)
        assert ds.features[1].tolist() == [0.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "none.libsvm"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError, match="empty"):
            load_libsvm(path)

    def test_non_ascending_indices(self, tmp_path):
        path = tmp_path / "desc.libsvm"
        path.write_text("1 2:1 1:1\n")
        with pytest.raises(DataFormatError, match="ascending"):
            load_libsvm(path)

    def test_malformed_token_reports_line(self, tmp_path):
        path = tmp_path / "tok.libsvm"
        path.write_text("1 1:1\n1 nonsense\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_libsvm(path)

    def test_round_trip_with_writer(self, tmp_path):
        X, y = separable_categorical(n=60, seed=5)
        path = tmp_path / "synth.libsvm"
        write_libsvm(path, X, y)
        ds = load_libsvm(path, n_features=X.shape[1])
        assert np.array_equal(ds.features, X)


class TestLoadDataset:
    def test_label_map_and_unknown_format(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,label\n0,x\n1,y\n2,z\n")
        ds = load_dataset(path, "csv", label_map={"x": "xy", "y": "xy"})
        assert ds.class_names == ("xy", "z") and ds.labels.tolist() == [0, 0, 1]
        with pytest.raises(ValueError, match="format must be one of"):
            load_dataset(path, "json")


class TestLabelMap:
    def test_many_to_one(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 1, 2, 1]), ("a", "b", "c"))
        mapped = apply_label_map(ds, {"a": "low", "b": "low", "c": "high"})
        assert mapped.class_names == ("low", "high")
        assert mapped.labels.tolist() == [0, 0, 1, 0]

    def test_unmapped_names_pass_through(self):
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), ("a", "b"))
        mapped = apply_label_map(ds, {"a": "z"})
        assert mapped.class_names == ("z", "b")


class TestSplit:
    def test_sizes(self):
        ds = Dataset(np.arange(10)[:, None].astype(float), np.array([0, 1] * 5), ("a", "b"))
        train, test = train_test_split(ds, 0.8, 0)
        assert train.n_samples == 8 and test.n_samples == 2

    def test_same_seed_same_partition(self):
        ds = Dataset(np.arange(50)[:, None].astype(float), np.zeros(50, dtype=int), ("a", "b"))
        a1, _ = train_test_split(ds, 0.8, 5)
        a2, _ = train_test_split(ds, 0.8, 5)
        assert np.array_equal(a1.features, a2.features)

    def test_different_seeds_differ(self):
        ds = Dataset(np.arange(1000)[:, None].astype(float), np.zeros(1000, dtype=int),
                     ("a", "b"))
        a, _ = train_test_split(ds, 0.8, 1)
        b, _ = train_test_split(ds, 0.8, 2)
        assert not np.array_equal(a.features, b.features)

    def test_degenerate_fraction_rejected(self):
        ds = Dataset(np.arange(3)[:, None].astype(float), np.zeros(3, dtype=int), ("a", "b"))
        with pytest.raises(ValueError):
            train_test_split(ds, 0.01, 0)
        with pytest.raises(ValueError):
            train_test_split(ds, 1.5, 0)


class TestTuneLambda:
    def test_single_value_grid(self):
        X, y = gaussian_blobs(60, [[-3, 0], [3, 0]], seed=0)
        ds = Dataset(X, y, ("n", "p"))
        best, scores = tune_lambda(ds, [0.25], ModelConfig("tree"), 0)
        assert best == 0.25 and len(scores) == 1

    def test_ties_prefer_larger_lambda_on_separable_data(self):
        X, y = gaussian_blobs(100, [[-4, 0], [4, 0]], scale=0.5, seed=1)
        ds = Dataset(X, y, ("n", "p"))
        best, scores = tune_lambda(ds, [0.0, 0.25, 0.5, 0.75, 1.0], ModelConfig("tree"), 2)
        assert best == 1.0
        assert all(acc == 1.0 for _, acc in scores)

    def test_result_always_in_grid(self):
        X, y = gaussian_blobs(40, [[-1, 0], [1, 0]], seed=3)
        ds = Dataset(X, y, ("n", "p"))
        grid = [0.3, 0.6]
        best, _ = tune_lambda(ds, grid, ModelConfig("tree"), 4)
        assert best in grid

    def test_empty_grid_rejected(self):
        ds = Dataset(np.zeros((10, 1)), np.array([0, 1] * 5), ("a", "b"))
        with pytest.raises(ValueError):
            tune_lambda(ds, [], ModelConfig("tree"), 0)


class TestFitModel:
    @pytest.mark.parametrize("model", [ModelConfig("tree"), ModelConfig("forest", n_trees=3)])
    def test_label_space_follows_n_classes(self, model):
        # a training shard without the top class keeps the dataset's K
        X, y = gaussian_blobs(20, [[-3, 0], [3, 0]], seed=0)
        fitted = _fit_model(model, CriterionSpec("gini"), X, y, 3, 0)
        assert fitted.n_classes == 3


def _write_blob_csv(tmp_path, n_per=150, seed=0):
    X, y = gaussian_blobs(n_per, [[-3, 0], [3, 0]], scale=0.6, seed=seed)
    path = tmp_path / "blobs.csv"
    write_csv(path, X, y, class_names=["neg", "pos"])
    return path


class TestEvaluate:
    def test_single_cell(self, tmp_path):
        path = _write_blob_csv(tmp_path)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "gini"}),),
            noise=(NoiseSpec("uniform", eta=0.0),),
            replications=1, seed=3,
        )
        records = evaluate(config)
        assert len(records) == 1
        rec = records[0]
        assert rec.criterion == "gini" and rec.noise == "uniform(0)"
        assert 0.0 <= rec.accuracy <= 1.0
        assert rec.accuracy == 1.0  # cleanly separable blobs

    def test_grid_shape_and_order(self, tmp_path):
        path = _write_blob_csv(tmp_path)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "entropy"}),
                      CriterionSetting.from_dict({"kind": "misclassification"})),
            noise=(NoiseSpec("uniform", eta=0.0), NoiseSpec("uniform", eta=0.4)),
            replications=3, seed=1,
        )
        records = evaluate(config)
        assert len(records) == 12
        assert [r.criterion for r in records[:6]] == ["entropy"] * 6

    def test_noise_hits_training_only(self, tmp_path):
        # one binary feature = one candidate split; each side keeps a clear
        # majority under eta=0.4, so the fitted stump reproduces the true rule
        # and test accuracy can only be 1.0 if test labels stayed clean
        y = np.array([0, 1] * 800)
        X = y[:, None].astype(float)
        path = tmp_path / "big.csv"
        write_csv(path, X, y)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "misclassification"}),),
            noise=(NoiseSpec("uniform", eta=0.4),),
            replications=1, seed=2,
        )
        assert evaluate(config)[0].accuracy == 1.0

    def test_bit_identical_across_runs_and_threads(self, tmp_path, monkeypatch):
        path = _write_blob_csv(tmp_path, n_per=80)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "ane"}),
                      CriterionSetting.from_dict({"kind": "entropy"})),
            noise=(NoiseSpec("uniform", eta=0.3),),
            replications=2, seed=9,
        )
        monkeypatch.setenv("ROBUST_TREES_THREADS", "1")
        first = evaluate(config)
        monkeypatch.setenv("ROBUST_TREES_THREADS", "8")
        fit_threads = []

        def recording_fit(*args, **kwargs):
            fit_threads.append(threading.get_ident())
            return _fit_model(*args, **kwargs)

        monkeypatch.setattr(dataeng, "_fit_model", recording_fit)
        second = evaluate(config)
        # 2 ane cells fit 5 lambda trees and a final one, 2 entropy cells one each
        assert fit_threads == [threading.get_ident()] * 14
        strip = lambda recs: [
            (r.dataset, r.criterion, r.params, r.noise, r.seed, r.accuracy,
             r.nodes, r.leaves, r.depth)
            for r in recs
        ]
        assert strip(first) == strip(second)

    def test_adaptive_ne_records_chosen_lambda(self, tmp_path):
        path = _write_blob_csv(tmp_path, n_per=60)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "ane"}),),
            noise=(NoiseSpec("uniform", eta=0.2),),
            replications=1, seed=5,
        )
        rec = evaluate(config)[0]
        assert rec.criterion == "ane"
        assert rec.params.startswith("lambda=")
        assert float(rec.params.split("=")[1]) in (0.0, 0.25, 0.5, 0.75, 1.0)


class TestExperimentConfig:
    def test_shipped_configs_parse(self):
        # parsing reads no data file, so every recipe is checked here
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            config = ExperimentConfig.from_json(path)
            assert config.criteria and config.noise, path.name

    def test_header_must_be_true_or_false(self):
        with pytest.raises(ValueError, match="header must be true or false, got str"):
            ExperimentConfig(dataset_path="data.csv", dataset_format="csv",
                             criteria=(CriterionSetting.from_dict({"kind": "gini"}),),
                             noise=(NoiseSpec("uniform"),), header="no")


class TestAggregation:
    def test_constant_records(self):
        summary = aggregate(
            [TestAggregation._rec(0.9), TestAggregation._rec(0.9), TestAggregation._rec(0.9)]
        )
        assert len(summary) == 1
        assert summary[0]["mean_accuracy"] == pytest.approx(0.9)
        assert summary[0]["two_sd"] == 0.0
        assert summary[0]["replications"] == 3

    def test_two_sd_is_sample_sd(self):
        summary = aggregate([TestAggregation._rec(0.8), TestAggregation._rec(0.9)])
        assert summary[0]["two_sd"] == pytest.approx(2 * np.std([0.8, 0.9], ddof=1))

    @staticmethod
    def _rec(acc):
        from robust_trees.dataeng import ResultRecord

        return ResultRecord("d", "gini", "", "uniform(0.1)", 1, acc, 3, 2, 1, 0.0)


class TestResultsCsv:
    def test_fixed_header_and_zeroed_timings(self, tmp_path):
        rec = TestAggregation._rec(0.875)
        path = tmp_path / "out.csv"
        write_records_csv([rec], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "dataset,criterion,params,noise,seed,accuracy,nodes,leaves,depth,seconds"
        assert lines[1].endswith(",0.000")
        assert ",0.875," in lines[1]
