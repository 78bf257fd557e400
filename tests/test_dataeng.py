"""Loaders, splits, lambda tuning, and the evaluation grid."""

import math
import multiprocessing
import os
import re
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
    load_csv_features,
    load_dataset,
    load_libsvm,
    train_test_split,
    tune_lambda,
    write_records_csv,
    _fit_model,
)
from robust_trees.forest import ForestParams, forest_from_dict, forest_to_dict
from robust_trees.noise import NoiseSpec
from robust_trees.tree import TreeParams
from synth import gaussian_blobs, separable_categorical, write_csv, write_libsvm
from test_criteria import traced_peak


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

    @pytest.mark.parametrize("text, message", [
        # the first bad token of a row is named, whether it is unparsable or not finite
        ("a,b,label\n1,2,x\ninf,oops,y\n", ":3: non-finite feature value 'inf'"),
        ("a,b,label\n1,2,x\noops,inf,y\n", ":3: cannot parse 'oops' as a number"),
        ("a,label\n1,x\nnan,y\n", ":3: non-finite feature value 'nan'"),
        ("a,label\n1,x\n-inf,y\n", ":3: non-finite feature value '-inf'"),
        # the first bad row wins, before a later ragged one is read
        ("a,label\n1,x\nnan,y\n1,2,z\n", ":3: non-finite feature value 'nan'"),
        ("a,label\n1,x\n1,2,z\nnan,y\n", ":3: expected 2 columns, found 3"),
        # a label column in the middle is skipped, whatever it holds
        ("a,label,b\n1,inf,2\n3,y,oops\n", ":3: cannot parse 'oops' as a number"),
    ], ids=["inf-then-oops", "oops-then-inf", "nan", "minus-inf", "bad-before-ragged",
            "ragged-before-bad", "label-in-the-middle"])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}{message}"

    def test_error_messages_without_a_header_or_labels(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,0,2\n3,1,inf\n")  # lines count from 1 with no header
        with pytest.raises(DataFormatError) as exc:
            load_csv(path, label_column=1, header=False)
        assert str(exc.value) == f"{path}:2: non-finite feature value 'inf'"
        path.write_text("a,b\n1,2\n3,x\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv_features(path)
        assert str(exc.value) == f"{path}:3: cannot parse 'x' as a number"

    def test_finite_values_whose_sum_overflows_load(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("a,b,label\n1e308,1e308,x\n-1e308,-1e308,y\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[1e308, 1e308], [-1e308, -1e308]]
        assert ds.class_names == ("x", "y")

    def test_label_column_in_the_middle(self, tmp_path):
        path = tmp_path / "middle.csv"
        path.write_text("a,label,b\n1,x,2\n3,y,4\n")
        ds = load_csv(path)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_peak_memory_holds_8_bytes_per_value(self, tmp_path):
        # a CSV the size of the grid benchmark's, 6,000 rows of 8 floats and a
        # label; held as lists of strings, its rows peaked at 4.7 MB
        X, y = gaussian_blobs(2000, np.eye(3, 8) * 2.5, seed=7)
        path = tmp_path / "blobs.csv"
        write_csv(path, X, y)
        ds = load_csv(path)
        assert np.array_equal(ds.features, X)
        assert traced_peak(lambda: load_csv(path)) < 1.5e6


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

    def test_n_features_is_a_minimum_width(self, tmp_path):
        path = tmp_path / "narrow.libsvm"
        path.write_text("1 2:1\n2 5:3\n")
        assert [load_libsvm(path, d).n_features for d in (0, 3, 5, 7)] == [5, 5, 5, 7]
        assert load_libsvm(path, 7).features[1].tolist() == [0, 0, 0, 0, 3, 0, 0]

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

    def test_index_past_int64_fails_as_a_too_wide_matrix(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.libsvm"
        path.write_text("1 99999999999999999999:1\n2 1:x\n")
        with pytest.raises(DataFormatError, match=":2: malformed feature token '1:x'"):
            load_libsvm(path)  # a later line's error still comes first
        path.write_text("1 99999999999999999999:1\n2 1:1\n")
        too_wide = ": a dense 2 x 99999999999999999999 float64 matrix does not fit in memory$"
        with pytest.raises(DataFormatError, match=too_wide):
            load_libsvm(path, n_features=3)  # a minimum width: the largest index still wins
        with pytest.raises(DataFormatError, match=too_wide):
            load_libsvm(path)
        # where physical memory is unknown, numpy's "Maximum allowed dimension
        # exceeded" fails the same way
        monkeypatch.setattr(dataeng, "_physical_memory", lambda: math.inf)
        with pytest.raises(DataFormatError, match=too_wide):
            load_libsvm(path)

    def test_matrix_larger_than_memory_fails_before_allocating(self, tmp_path, monkeypatch):
        # 1 x 9999999999999 float64 is 80 TB: checked before numpy allocates,
        # since a kernel that overcommits memory may let the allocation succeed
        path = tmp_path / "huge.libsvm"
        path.write_text("1 9999999999999:1\n")
        calls, zeros = [], np.zeros
        monkeypatch.setattr(np, "zeros", lambda *a, **kw: calls.append(a) or zeros(*a, **kw))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: a dense 1 x"
                                                  " 9999999999999 float64 matrix does not"):
            load_libsvm(path)
        assert calls == []
        path.write_text("1 1:1 2:1\n")  # 16 bytes
        monkeypatch.setattr(dataeng, "_physical_memory", lambda: 16)
        assert load_libsvm(path).features.tolist() == [[1.0, 1.0]]
        monkeypatch.setattr(dataeng, "_physical_memory", lambda: 15)
        with pytest.raises(DataFormatError, match="does not fit in memory"):
            load_libsvm(path)

    def test_peak_memory_holds_8_bytes_per_value(self, tmp_path):
        # a Mushrooms-sized file, 8,124 rows of 22 nonzeros in 112 columns; one
        # tuple per nonzero value peaked at 23.4 MB
        X, y = separable_categorical()
        path = tmp_path / "mushrooms.libsvm"
        write_libsvm(path, X, y)
        ds = load_libsvm(path)
        assert np.array_equal(ds.features, X)
        assert traced_peak(lambda: load_libsvm(path)) < 16e6


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

    def test_numpy_grid_equals_list_grid(self):
        X, y = gaussian_blobs(40, [[-1, 0], [1, 0]], seed=3)
        ds = Dataset(X, y, ("n", "p"))
        grid = [0.0, 0.5, 1.0]
        assert (tune_lambda(ds, np.array(grid), ModelConfig("tree"), 4)
                == tune_lambda(ds, grid, ModelConfig("tree"), 4))

    @pytest.mark.parametrize("grid, message", [
        ("0.5", "tuning grid must be a non-empty list of lambdas, got '0.5'"),
        ([0.5, 2], "tuning grid: criterion lambda must lie in [0, 1], got 2"),
    ], ids=["string", "out-of-range"])
    def test_bad_grid_rejected_before_any_fit(self, monkeypatch, grid, message):
        monkeypatch.setattr(dataeng, "_fit_model", lambda *args: pytest.fail("fitted"))
        ds = Dataset(np.zeros((10, 1)), np.array([0, 1] * 5), ("a", "b"))
        with pytest.raises(ValueError) as exc:
            tune_lambda(ds, grid, ModelConfig("tree"), 0)
        assert str(exc.value) == message


class TestModelConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"bootstrap": "no"}, "bootstrap must be true or false, got str"),
        ({"n_trees": "x"}, "n_trees must be an integer, got str"),
        ({"n_trees": 0}, "n_trees must be >= 1, got 0"),
        ({"max_depth": "3"}, "max_depth must be an integer, got str"),
        ({"min_samples_leaf": 0}, "min_samples_leaf must be >= 1, got 0"),
        ({"kind": "forest", "feature_subsample": 0}, "feature_subsample must be >= 1, got 0"),
        ({"kind": "bush"}, "model kind must be 'tree' or 'forest', got 'bush'"),
    ], ids=["bootstrap", "n-trees-type", "n-trees", "max-depth", "min-samples-leaf",
            "feature-subsample", "kind"])
    def test_every_field_checked_on_construction(self, fields, message):
        with pytest.raises(ValueError) as exc:
            ModelConfig(**fields)
        assert str(exc.value) == message

    def test_params_of_a_tree_and_of_a_forest(self):
        spec = CriterionSpec("gini")
        tree = ModelConfig("tree", max_depth=3, n_trees=5).params(spec, 7)
        assert tree == TreeParams(spec, max_depth=3, rng_seed=7)
        forest = ModelConfig("forest", max_depth=3, n_trees=5).params(spec, 7)
        assert forest == ForestParams(TreeParams(spec, max_depth=3), n_trees=5, rng_seed=7)


class TestFitModel:
    @pytest.mark.parametrize("model", [ModelConfig("tree"), ModelConfig("forest", n_trees=3)])
    def test_label_space_follows_n_classes(self, model):
        # a training shard without the top class keeps the dataset's K
        X, y = gaussian_blobs(20, [[-3, 0], [3, 0]], seed=0)
        fitted = _fit_model(model, CriterionSpec("gini"), X, y, 3, 0)
        assert fitted.n_classes == 3

    def test_forest_params_round_trip(self):
        X, y = gaussian_blobs(20, [[-3, 0], [3, 0]], seed=0)
        fitted = _fit_model(ModelConfig("forest", n_trees=2), CriterionSpec("gini"), X, y, 2, 7)
        assert forest_from_dict(forest_to_dict(fitted)).params == fitted.params


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

    def test_pooled_cells_match_one_cpu(self, tmp_path, monkeypatch):
        path = _write_blob_csv(tmp_path, n_per=80)
        config = ExperimentConfig(
            dataset_path=str(path), dataset_format="csv",
            criteria=(CriterionSetting.from_dict({"kind": "ane"}),
                      CriterionSetting.from_dict({"kind": "entropy"})),
            noise=(NoiseSpec("uniform", eta=0.3),),
            replications=2, seed=9,
        )
        pids = tmp_path / "pids"

        def recording_fit(*args, **kwargs):
            with open(pids, "a", encoding="utf-8") as fh:  # one short append per fit
                fh.write(f"{os.getpid()}\n")
            return _fit_model(*args, **kwargs)

        def fits_by_process(cpus):
            pids.write_text("")
            monkeypatch.setattr(dataeng, "_usable_cpus", lambda: cpus)
            records = evaluate(config)
            return records, pids.read_text().split()

        monkeypatch.setattr(dataeng, "_fit_model", recording_fit)  # forked workers inherit it
        alone, alone_pids = fits_by_process(1)
        pooled, pooled_pids = fits_by_process(2)
        # 2 ane cells fit 5 lambda trees and a final one, 2 entropy cells one each
        assert alone_pids == [str(os.getpid())] * 14
        assert len(pooled_pids) == 14 and str(os.getpid()) not in pooled_pids
        strip = lambda recs: [
            (r.dataset, r.criterion, r.params, r.noise, r.seed, r.accuracy,
             r.nodes, r.leaves, r.depth)
            for r in recs
        ]
        assert strip(pooled) == strip(alone)
        assert multiprocessing.active_children() == []
        # no fork beside another thread, which could hold a lock the child inherits
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            beside_a_thread, thread_pids = fits_by_process(2)
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
        assert thread_pids == alone_pids and strip(beside_a_thread) == strip(alone)

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
        # parsing reads no data file, so every recipe is checked here, and
        # each names its dataset in data/, where data/README.md describes it
        root = Path(__file__).resolve().parents[1]
        paths = sorted((root / "configs").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            config = ExperimentConfig.from_json(path)
            assert config.criteria and config.noise, path.name
            dataset = Path(config.dataset_path).resolve()
            assert dataset.parent == root / "data", path.name
            assert dataset.name in (root / "data" / "README.md").read_text(), path.name

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
