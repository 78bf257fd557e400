"""Command-line interface: flags, exit codes, JSON status lines, file outputs."""

import csv
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robust_trees
from robust_trees import dataeng, verify
from robust_trees.cli import entrypoint, main
from robust_trees.tree import load_tree, predict_batch
from synth import gaussian_blobs, write_csv


@pytest.fixture()
def blob_csv(tmp_path):
    X, y = gaussian_blobs(80, [[-3, 0], [3, 0]], scale=0.6, seed=1)
    path = tmp_path / "blobs.csv"
    write_csv(path, X, y, class_names=["neg", "pos"])
    return path


@pytest.fixture()
def three_class_csv(tmp_path):
    X, y = gaussian_blobs(40, [[-3, 0], [3, 0], [0, 3]], scale=0.6, seed=2)
    path = tmp_path / "three.csv"
    write_csv(path, X, y)
    return path


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 1, f"expected exactly one stdout line, got {out!r}"
    return code, json.loads(lines[0])


def run_cli_full(capsys, *argv) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [line for line in captured.out.strip().split("\n") if line]
    assert len(lines) == 1
    return code, json.loads(lines[0]), captured.err


class TestTrain:
    def test_round_trip(self, blob_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, status = run_cli(
            capsys, "train", "--data", str(blob_csv), "--format", "csv",
            "--criterion", "gini", "--seed", "3", "--out", str(model),
        )
        assert code == 0
        assert status["command"] == "train"
        assert status["train_accuracy"] == 1.0
        assert {"nodes", "leaves", "depth"} <= set(status)
        tree = load_tree(model)
        X, y = gaussian_blobs(80, [[-3, 0], [3, 0]], scale=0.6, seed=1)
        assert (predict_batch(tree, X)[0] == y).all()

    def test_unknown_criterion_exits_2(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(blob_csv), "--format", "csv",
                  "--criterion", "credal", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_ne_without_lambda_exits_2(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(blob_csv), "--format", "csv",
                  "--criterion", "ne", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_gce_without_q_exits_2(self, blob_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(blob_csv), "--format", "csv",
                  "--criterion", "gce", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--max-depth", "0"], "max_depth must be >= 1, got 0"),
        (["--min-samples-leaf", "0"], "min_samples_leaf must be >= 1, got 0"),
        (["--trees", "0"], "n_trees must be >= 1, got 0"),
    ], ids=["max-depth", "min-samples-leaf", "trees"])
    def test_bad_model_flag_exits_2_before_reading_data(self, tmp_path, capsys, flags,
                                                         message):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--criterion", "gini", "--out", str(tmp_path / "m.json"), *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                     "--criterion", "gini", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_forest_training(self, blob_csv, tmp_path, capsys):
        model = tmp_path / "forest.json"
        code, status = run_cli(
            capsys, "train", "--data", str(blob_csv), "--format", "csv",
            "--criterion", "entropy", "--forest", "--trees", "5",
            "--seed", "1", "--out", str(model),
        )
        assert code == 0 and status["model"] == "forest"
        assert json.loads(model.read_text())["params"]["n_trees"] == 5


class TestPredict:
    def test_predict_reports_accuracy(self, blob_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["train", "--data", str(blob_csv), "--format", "csv",
              "--criterion", "gini", "--out", str(model)])
        capsys.readouterr()
        out_csv = tmp_path / "preds.csv"
        code, status = run_cli(
            capsys, "predict", "--model", str(model), "--data", str(blob_csv),
            "--format", "csv", "--out", str(out_csv),
        )
        assert code == 0
        assert status["accuracy"] == 1.0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "prediction,p0,p1"
        assert len(lines) == 161

    @pytest.fixture()
    def model(self, blob_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        main(["train", "--data", str(blob_csv), "--format", "csv",
              "--criterion", "gini", "--out", str(path)])
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("forest", [False, True], ids=["tree", "forest"])
    def test_more_classes_than_the_model_exits_1(self, blob_csv, tmp_path, capsys, forest):
        model = tmp_path / "model.json"
        main(["train", "--data", str(blob_csv), "--format", "csv", "--criterion", "gini",
              "--out", str(model), *(["--forest", "--trees", "2"] if forest else [])])
        capsys.readouterr()
        X, y = gaussian_blobs(30, [[-3, 0], [3, 0], [0, 3]], scale=0.6, seed=2)
        data = tmp_path / "three.csv"
        write_csv(data, X, y)
        code = main(["predict", "--model", str(model), "--data", str(data), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the data has 3 classes, more than the model's 2\n"

    def test_no_labels_predicts_feature_only_csv(self, model, tmp_path, capsys):
        X, y = gaussian_blobs(80, [[-3, 0], [3, 0]], scale=0.6, seed=1)
        data = tmp_path / "features.csv"
        data.write_text("f0,f1\n" + "".join(f"{a!r},{b!r}\n" for a, b in X.tolist()))
        out_csv = tmp_path / "preds.csv"
        code, status = run_cli(
            capsys, "predict", "--model", str(model), "--data", str(data),
            "--format", "csv", "--no-labels", "--out", str(out_csv),
        )
        assert code == 0
        assert status["n"] == 160 and "accuracy" not in status
        rows = out_csv.read_text().strip().split("\n")[1:]
        assert [int(row.split(",")[0]) for row in rows] == y.tolist()

    @pytest.mark.parametrize("row, message", [
        ("nan,0", "non-finite feature value 'nan'"),
        ("inf,1", "non-finite feature value 'inf'"),
        ("0.5", "expected 2 columns, found 1"),
    ])
    def test_no_labels_bad_row_exits_1(self, model, tmp_path, capsys, row, message):
        data = tmp_path / "features.csv"
        data.write_text(f"f0,f1\n0.5,0.5\n{row}\n")
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--format", "csv", "--no-labels"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {data}:3: {message}\n"

    def test_too_few_columns_exits_1(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 1, "threshold": 0.0, "left": 1, "right": 2},
            {"kind": "leaf", "counts": [1, 0]}, {"kind": "leaf", "counts": [0, 1]}]}))
        data = tmp_path / "features.csv"
        data.write_text("f0\n0.5\n")
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--format", "csv", "--no-labels"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: the model splits on feature 1")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("forest", [False, True], ids=["tree", "forest"])
    def test_libsvm_narrower_than_the_model_reads_as_zeros(self, tmp_path, capsys, forest):
        # the model splits on index 5 (feature 4) alone; LIBSVM leaves zero
        # entries out, so a file whose largest index is 3 holds 0 there
        train = tmp_path / "train.libsvm"
        train.write_text("a 1:0.5 5:1\na 2:0.3 5:2\nb 1:0.2\nb 3:0.7\n")
        model = tmp_path / "model.json"
        main(["train", "--data", str(train), "--format", "libsvm", "--criterion", "gini",
              "--out", str(model),
              *(["--forest", "--trees", "2", "--no-bootstrap", "--feature-subsample", "5"]
                if forest else [])])
        capsys.readouterr()
        data, out = tmp_path / "narrow.libsvm", tmp_path / "preds.csv"
        data.write_text("a 1:0.5 3:2\nb 2:0.1\n")
        code, status = run_cli(capsys, "predict", "--model", str(model), "--data", str(data),
                               "--format", "libsvm", "--out", str(out))
        assert code == 0 and status["n"] == 2 and status["accuracy"] == 0.5
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["1", "1"]

    def test_libsvm_is_read_at_the_model_width_in_one_allocation(self, tmp_path, capsys,
                                                                 monkeypatch):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 4, "threshold": 0.5, "left": 1, "right": 2},
            {"kind": "leaf", "counts": [1, 0]}, {"kind": "leaf", "counts": [0, 1]}]}))
        data = tmp_path / "narrow.libsvm"
        data.write_text("a 1:0.5\nb 2:1\n")
        shapes, zeros = [], dataeng._zeros
        monkeypatch.setattr(dataeng, "_zeros", lambda n, d, path: shapes.append((n, d))
                            or zeros(n, d, path))
        code, status = run_cli(capsys, "predict", "--model", str(model), "--data", str(data),
                               "--format", "libsvm")
        assert code == 0 and status["n"] == 2 and shapes == [(2, 5)]

    def test_libsvm_padding_past_memory_exits_1(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 2**62, "threshold": 0.0, "left": 1, "right": 2},
            {"kind": "leaf", "counts": [1, 0]}, {"kind": "leaf", "counts": [0, 1]}]}))
        data = tmp_path / "narrow.libsvm"
        data.write_text("a 1:0.5\n")
        code = main(["predict", "--model", str(model), "--data", str(data), "--format", "libsvm"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: {data}: a dense 1 x {2**62 + 1} float64 matrix"
                                " does not fit in memory\n")

    def test_huge_class_count_fails_its_checks_before_any_allocation(self, tmp_path, blob_csv,
                                                                     capsys):
        # a nodes x K count array would take 728 TiB
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criterion": {"kind": "gini"}, "K": 10**14, "nodes": [
            {"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2}]}))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: node 0: a split needs feature >= 0")
        assert captured.err.count("\n") == 1

    def test_model_missing_key_exits_1(self, model, blob_csv, capsys):
        data = json.loads(model.read_text())
        del next(n for n in data["nodes"] if n["kind"] == "split")["threshold"]
        model.write_text(json.dumps(data))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: node 0: missing key 'threshold'\n"

    @pytest.mark.parametrize("content, message", [
        ([], "tree model must be a JSON object, got list"),
        ("x", "tree model must be a JSON object, got str"),
        (1, "tree model must be a JSON object, got int"),
        ({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 0, "threshold": 0.0, "left": 1, "right": 2},
            1, {"kind": "leaf", "counts": [0, 1]}]}, "node 1 must be a JSON object, got int"),
        ({"criterion": "gini", "K": 2, "nodes": [{"kind": "leaf", "counts": [1, 1]}]},
         "criterion must be a JSON object, got str"),
        ({"criterion": {"kind": "gini"}, "K": 2, "nodes": 5},
         "nodes must be a JSON array, got int"),
        ({"criterion": {"kind": "gini"}, "K": [2], "nodes": []},
         "K must be a JSON integer, got list"),
        ({"criterion": {"kind": "gini"}, "K": 2.5, "nodes": [{"kind": "leaf", "counts": [1, 1]}]},
         "K must be a JSON integer, got float"),
        ({"criterion": {"kind": "gini"}, "K": 2, "nodes": [{"kind": "leaf", "counts": 5}]},
         "node 0: counts must be a JSON array, got int"),
        ({"params": [], "K": 2, "trees": []}, "forest params must be a JSON object, got list"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
          "K": 2, "trees": 3}, "trees must be a JSON array, got int"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
          "K": 2, "trees": [[]]}, "tree 0: tree model must be a JSON object, got list"),
        ({"criterion": {"kind": "gce", "q": "x"}, "K": 2, "nodes": [
            {"kind": "leaf", "counts": [1, 1]}]}, "criterion q must be a real number, got str"),
        ({"criterion": {"kind": "ne", "lambda": [1]}, "K": 2, "nodes": [
            {"kind": "leaf", "counts": [1, 1]}]},
         "criterion lambda must be a real number, got list"),
        ({"criterion": {"kind": "gce", "q": True}, "K": 2, "nodes": [
            {"kind": "leaf", "counts": [1, 1]}]}, "criterion q must be a real number, got bool"),
        ({"criterion": {"kind": 1}, "K": 2, "nodes": [{"kind": "leaf", "counts": [1, 1]}]},
         "criterion kind must be a string, got int"),
        ({"params": {"n_trees": 1, "bootstrap": True,
                     "criterion": {"kind": "ne", "lambda": False}}, "K": 2, "trees": []},
         "criterion lambda must be a real number, got bool"),
        *(({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"},
                       **params}, "K": 2, "trees": []}, message)
          for params, message in [
              ({"max_depth": "3"}, "max_depth must be an integer, got str"),
              ({"n_trees": "2"}, "n_trees must be an integer, got str"),
              ({"min_samples_leaf": None}, "min_samples_leaf must be an integer, got NoneType"),
              ({"feature_subsample": 1.5}, "feature_subsample must be an integer, got float"),
              ({"rng_seed": "x"}, "rng_seed must be an integer, got str"),
              ({"bootstrap": "no"}, "bootstrap must be true or false, got str"),
          ]),
        *(({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2, **split},
            {"kind": "leaf", "counts": counts}, {"kind": "leaf", "counts": [0, 1]}]}, message)
          for split, counts, message in [
              ({"feature": 1.5}, [1, 1], "node 0: feature must be a JSON integer, got float"),
              ({"feature": True}, [1, 1], "node 0: feature must be a JSON integer, got bool"),
              ({"threshold": "0.5"}, [1, 1], "node 0: threshold must be a JSON number, got str"),
              ({"threshold": True}, [1, 1], "node 0: threshold must be a JSON number, got bool"),
              ({"left": True}, [1, 1], "node 0: left must be a JSON integer, got bool"),
              ({"left": 1.9}, [1, 1], "node 0: left must be a JSON integer, got float"),
              ({"right": 2.0}, [1, 1], "node 0: right must be a JSON integer, got float"),
              ({}, [3.7, 1], "node 1: a count must be a JSON integer, got float"),
              ({}, ["3", 1], "node 1: a count must be a JSON integer, got str"),
              ({}, [1, False], "node 1: a count must be a JSON integer, got bool"),
          ]),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}}, "K": 2,
          "trees": [{"criterion": {"kind": "gini"}, "K": 2, "nodes": [
              {"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2},
              {"kind": "leaf", "counts": [1, 1]}, {"kind": "leaf", "counts": [0, 1.0]}]}]},
         "tree 0: node 2: a count must be a JSON integer, got float"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}}, "K": 2,
          "trees": [{"criterion": {"kind": "gini"}, "K": 2, "nodes": [
              {"kind": "split", "feature": True, "threshold": 0.5, "left": 1, "right": 2},
              {"kind": "leaf", "counts": [1, 1]}, {"kind": "leaf", "counts": [0, 1]}]}]},
         "tree 0: node 0: feature must be a JSON integer, got bool"),
    ])
    def test_wrong_json_type_exits_1(self, tmp_path, blob_csv, capsys, content, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("split, counts, message", [
        ({"feature": 10**23}, [1, 1], "node 0: feature is out of range for int64"),
        ({"left": 10**23}, [1, 1], "node 0: left is out of range for int64"),
        ({}, [10**23, 1], "node 1: a count is out of range for int64"),
        ({"threshold": 10**400}, [1, 1], "node 0: threshold is out of range for float64"),
    ], ids=["feature", "left", "count", "threshold"])
    def test_integer_out_of_range_exits_1(self, tmp_path, blob_csv, capsys, split, counts,
                                          message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"criterion": {"kind": "gini"}, "K": 2, "nodes": [
            {"kind": "split", "feature": 0, "threshold": 0.5, "left": 1, "right": 2, **split},
            {"kind": "leaf", "counts": counts}, {"kind": "leaf", "counts": [0, 1]}]}))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        ({"criterion": {"kind": "gini", "lamda": 0.5}, "K": 2,
          "nodes": [{"kind": "leaf", "counts": [1, 1]}]}, "criterion has unknown key 'lamda'"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"},
                     "max_dpeth": 2}, "K": 2, "trees": []},
         "forest params has unknown key 'max_dpeth'"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini", "qq": 1}},
          "K": 2, "trees": []}, "criterion has unknown key 'qq'"),
        ({"criterion": {"kind": "gini"}, "K": 2, "nodes": [{"kind": "leaf", "counts": [1, 1]}],
          "version": 1}, "tree model has unknown key 'version'"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
          "K": 2, "trees": [], "version": 1}, "forest model has unknown key 'version'"),
    ], ids=["tree-criterion", "forest-params", "forest-criterion", "tree-model", "forest-model"])
    def test_unknown_key_exits_1(self, tmp_path, blob_csv, capsys, content, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        ({"criterion": {"kind": "gini"}, "K": True, "nodes": [{"kind": "leaf", "counts": [3]}]},
         "K must be a JSON integer, got bool"),
        ({"criterion": {"kind": "gini"}, "K": 1, "nodes": [{"kind": "leaf", "counts": [3]}]},
         "K must be >= 2, got 1"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
          "K": False, "trees": []}, "K must be a JSON integer, got bool"),
        ({"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
          "K": 1, "trees": []}, "K must be >= 2, got 1"),
    ], ids=["tree-bool", "tree-one-class", "forest-bool", "forest-one-class"])
    def test_bad_class_count_exits_1(self, tmp_path, blob_csv, capsys, content, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("params, message", [
        ({"n_trees": 5}, "forest params give n_trees 5, the model has 1 trees"),
        ({"criterion": {"kind": "gini"}}, "tree 0: criterion is entropy, the forest's is gini"),
    ], ids=["n-trees", "criterion"])
    def test_params_disagree_with_trees_exits_1(self, tmp_path, blob_csv, capsys,
                                                params, message):
        model = tmp_path / "forest.json"
        assert main(["train", "--data", str(blob_csv), "--format", "csv", "--criterion",
                     "entropy", "--forest", "--trees", "1", "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        data["params"].update(params)
        model.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["train", "--criterion", "gini", "--out", "m.json"],
    ["noise", "--kind", "uniform"],
    ["tune"],
    ["verify", "--suite", "noise"],
], ids=["train", "noise", "tune", "verify"])
def test_negative_seed_flag_exits_2(blob_csv, capsys, command):
    data = [] if command[0] == "verify" else ["--data", str(blob_csv), "--format", "csv"]
    with pytest.raises(SystemExit) as exc:
        main([*command, *data, "--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: a seed must be an integer >= 0, got '-1'\n")


class TestNoiseCommand:
    def test_matrix_and_corrupted_output(self, blob_csv, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        noisy = tmp_path / "noisy.csv"
        code, status = run_cli(
            capsys, "noise", "--data", str(blob_csv), "--format", "csv",
            "--kind", "uniform", "--eta", "0.3", "--seed", "5",
            "--matrix-out", str(matrix), "--out", str(noisy),
        )
        assert code == 0
        assert status["diagonally_dominant"] is True
        assert 0.1 < status["flip_fraction"] < 0.5
        rows = [line.split(",") for line in matrix.read_text().strip().split("\n")]
        assert np.allclose(np.asarray(rows, dtype=float), [[0.7, 0.3], [0.3, 0.7]])
        assert len(noisy.read_text().strip().split("\n")) == 161

    def test_binary_cc_flips_each_class_at_its_rate(self, blob_csv, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        code, status = run_cli(
            capsys, "noise", "--data", str(blob_csv), "--format", "csv", "--kind", "binary_cc",
            "--rho-pos", "0.1", "--rho-neg", "0.3", "--matrix-out", str(matrix),
        )
        assert code == 0 and status["kind"] == "binary_cc"
        assert status["diagonally_dominant"] is True
        rows = [line.split(",") for line in matrix.read_text().strip().split("\n")]
        assert np.allclose(np.asarray(rows, dtype=float), [[0.9, 0.1], [0.3, 0.7]])

    def test_binary_cc_on_three_classes_exits_1(self, three_class_csv, capsys):
        code = main(["noise", "--data", str(three_class_csv), "--format", "csv",
                     "--kind", "binary_cc", "--rho-pos", "0.1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: binary_cc noise needs a binary problem\n"

    def test_a_parameter_the_kind_does_not_take_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # the data file does not exist: it is never read
            main(["noise", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--kind", "uniform", "--eta", "0.3", "--rho-pos", "0.2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: noise 'uniform' takes no rho_pos parameter\n")

    def test_a_rate_out_of_range_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # the data file does not exist: it is never read
            main(["noise", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--kind", "uniform", "--eta", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: noise eta must lie in [0, 1), got 5.0\n")

    def test_mahalanobis_on_three_classes(self, three_class_csv, tmp_path, capsys):
        matrix, noisy = tmp_path / "matrix.csv", tmp_path / "noisy.csv"
        code, status = run_cli(
            capsys, "noise", "--data", str(three_class_csv), "--format", "csv",
            "--kind", "mahalanobis", "--seed", "3", "--matrix-out", str(matrix),
            "--out", str(noisy),
        )
        assert code == 0 and status["kind"] == "mahalanobis"
        P = np.loadtxt(matrix, delimiter=",")
        assert P.shape == (3, 3) and np.allclose(P.sum(axis=1), 1.0)
        assert 0.0 < status["flip_fraction"] < 1.0
        assert len(noisy.read_text().strip().split("\n")) == 121


class TestTune:
    def test_reports_best_lambda(self, blob_csv, capsys):
        code, status = run_cli(
            capsys, "tune", "--data", str(blob_csv), "--format", "csv",
            "--grid", "0,0.5,1", "--seed", "2",
        )
        assert code == 0
        assert status["best_lambda"] in (0.0, 0.5, 1.0)
        assert set(status["scores"]) == {"0", "0.5", "1"}

    def test_bad_grid_value_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        monkeypatch.setattr(dataeng, "_fit_model", lambda *args: fits.append(args))
        with pytest.raises(SystemExit) as exc:  # the data file does not exist: it is never read
            main(["tune", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--grid", "0.5,2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and fits == []
        assert captured.err.endswith("error: tuning grid: criterion lambda must lie in [0, 1],"
                                    " got 2.0\n")

    def test_grid_token_that_is_not_a_number_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--grid", "0.5,abc"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            "error: --grid must be comma-separated numbers, got '0.5,abc'\n")

    def test_bad_validation_fraction_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--data", str(tmp_path / "nope.csv"), "--format", "csv",
                  "--validation-fraction", "1.5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: validation_fraction must lie in (0, 1), got 1.5\n")


def _bench_config(tmp_path, data_path, reps=2, **overrides):
    """Write a bench config; an override of None drops that key."""
    config = {
        "dataset": {"path": str(data_path), "format": "csv", "label_column": "label"},
        "split": {"train_fraction": 0.8, "seed": 0},
        "noise": [{"kind": "uniform", "eta": 0.0}, {"kind": "uniform", "eta": 0.4}],
        "criteria": [{"kind": "entropy"}, {"kind": "misclassification"}],
        "model": {"kind": "tree"},
        "replications": reps,
        "seed": 11,
        **overrides,
    }
    config = {key: value for key, value in config.items() if value is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestBench:
    def test_row_counts_and_summary(self, blob_csv, tmp_path, capsys):
        config = _bench_config(tmp_path, blob_csv, reps=2)
        out = tmp_path / "results.csv"
        code, status = run_cli(capsys, "bench", "--config", str(config),
                               "--out", str(out))
        assert code == 0 and status["records"] == 8
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 9  # header + 2 criteria x 2 noises x 2 reps
        summary = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "dataset,criterion,noise,replications,mean_accuracy,two_sd"
        assert len(summary) == 5  # header + 4 cells

    @pytest.mark.parametrize("data, noise, label", [
        ("blob_csv", {"kind": "binary_cc", "rho_pos": 0.1, "rho_neg": 0.3}, "binary_cc(0.1,0.3)"),
        ("three_class_csv", {"kind": "mahalanobis"}, "mahalanobis"),
    ], ids=["binary_cc", "mahalanobis"])
    def test_noise_column_names_the_kind(self, request, tmp_path, capsys, data, noise, label):
        config = _bench_config(tmp_path, request.getfixturevalue(data), reps=1, noise=[noise])
        out = tmp_path / "results.csv"
        code, status = run_cli(capsys, "bench", "--config", str(config), "--out", str(out))
        assert code == 0 and status["records"] == 2
        rows = csv.DictReader(out.read_text().splitlines())
        assert [row["noise"] for row in rows] == [label, label]

    @pytest.mark.parametrize("out, summary", [("summary.csv", None), ("r.csv", "./r.csv")],
                             ids=["default-summary", "same-path"])
    def test_summary_at_the_results_path_exits_2_before_any_cell(
            self, blob_csv, tmp_path, capsys, monkeypatch, out, summary):
        config, cells = _bench_config(tmp_path, blob_csv), []
        monkeypatch.setattr(dataeng, "_run_cell", lambda *args: cells.append(args))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(config), "--out", out,
                  *(["--summary", summary] if summary else [])])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "" and cells == []
        assert captured.err.endswith(f"error: the summary path {summary or out} is the"
                                     f" results path --out\n")
        assert not (tmp_path / out).exists()

    def test_byte_identical_across_runs(self, blob_csv, tmp_path, capsys):
        config = _bench_config(tmp_path, blob_csv)
        outs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            assert main(["bench", "--config", str(config), "--out", str(out),
                         "--summary", str(tmp_path / f"s_{name}")]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    def test_timings_fill_only_the_seconds_column(self, blob_csv, tmp_path, capsys):
        config = _bench_config(tmp_path, blob_csv)
        tables = []
        for name, flags in (("plain.csv", []), ("timed.csv", ["--timings"])):
            out = tmp_path / name
            assert main(["bench", "--config", str(config), "--out", str(out), *flags]) == 0
            tables.append([row.split(",") for row in out.read_text().splitlines()[1:]])
        capsys.readouterr()
        plain, timed = tables
        assert [row[:-1] for row in plain] == [row[:-1] for row in timed]
        assert all(row[-1] == "0.000" for row in plain)
        assert all(re.fullmatch(r"\d+\.\d{3}", row[-1]) for row in timed)

    @pytest.mark.parametrize("overrides,message", [
        ({"tuning": {"grid": []}}, "error: tuning grid must be a non-empty list"),
        ({"tuning": {"grid": [2.0]}}, "error: tuning grid: criterion lambda must lie in [0, 1]"),
        ({"tuning": {"grid": ["x"]}}, "error: tuning grid: criterion lambda must be a real"),
        ({"tuning": {"grid": "0.5"}}, "error: tuning grid must be a non-empty list"),
        ({"model": {"feature_subsample": 99}},
         "error: evaluation failed at criterion=ane noise=uniform(0) replication=0:"
         " feature_subsample cannot exceed the feature count"),
        ({"model": {"max_depth": "3"}}, "error: max_depth must be an integer, got str"),
        ({"model": {"kind": "forest", "n_trees": 2, "bootstrap": "no"}},
         "error: bootstrap must be true or false, got str"),
        ({"model": {"kind": "tree", "bootstrap": "no"}},
         "error: bootstrap must be true or false, got str"),
        ({"model": {"kind": "tree", "n_trees": "x"}}, "error: n_trees must be an integer, got str"),
        ({"dataset": {"path": "nope.csv", "format": "csv"}, "model": {"min_samples_leaf": 0}},
         "error: min_samples_leaf must be >= 1"),
        ({"seed": -1}, "error: seed must be >= 0, got -1"),
        ({"split": {"seed": -1}}, "error: split_seed must be >= 0, got -1"),
        ({"model": {"max_dpeth": 2}}, "error: model has unknown key 'max_dpeth'"),
        ({"model": "tree"}, "error: model must be a JSON object, got str"),
        ({"noise": [{"kind": "uniform", "etaa": 0.1}]},
         "error: noise setting has unknown key 'etaa'"),
        ({"noise": [{"kind": "uniform", "eta": "0.1"}]},
         "error: noise eta must be a real number, got str"),
        ({"dataset": None}, "error: experiment config is missing key 'dataset'"),
        ({"criteria": [{"q": 0.7}]}, "error: criterion is missing key 'kind'"),
        ({"criteria": {"kind": "entropy"}}, "error: criteria must be a JSON array, got dict"),
        ({"replications": "2"}, "error: replications must be an integer, got str"),
        ({"split": {"train_fraction": "0.5"}},
         "error: train_fraction must be a real number, got str"),
        ({"criteria": [{"kind": "gini", "lamda": 0.5}]},
         "error: criterion has unknown key 'lamda'"),
        ({"criteria": [{"kind": "ane", "lambda": 0.5}]},
         "error: criterion has unknown key 'lambda'"),
        ({"dataset": {"path": 5, "format": "csv"}},
         "error: dataset path must be a JSON string, got int"),
        ({"dataset": {"path": "x.csv", "format": "csv", "label_map": ["x"]}},
         "error: label_map must be a JSON object, got list"),
        ({"dataset": {"path": "x.csv", "format": "csv", "label_map": {"a": ["b"]}}},
         "error: label_map value must be a JSON string, got list"),
        ({"replicatons": 2}, "error: experiment config has unknown key 'replicatons'"),
        ({"dataset": {"path": "x.csv", "format": "csv", "lable_column": "y"}},
         "error: dataset has unknown key 'lable_column'"),
        ({"split": {"train_fracton": 0.5}}, "error: split has unknown key 'train_fracton'"),
        ({"tuning": {"grdi": [0.5]}}, "error: tuning has unknown key 'grdi'"),
        ({"dataset": {"path": "x.csv"}}, "error: dataset is missing key 'format'"),
        ({"tuning": {"validation_fraction": 1.5}},
         "error: validation_fraction must lie in (0, 1), got 1.5"),
    ], ids=["empty-grid", "lambda-out-of-range", "lambda-not-a-number", "string-grid",
            "cell-value-error", "string-max-depth", "string-bootstrap", "tree-string-bootstrap",
            "tree-string-n-trees", "model-before-missing-data", "negative-seed",
            "negative-split-seed", "unknown-model-key",
            "model-not-object", "unknown-noise-key", "string-eta", "no-dataset",
            "criterion-without-kind", "criteria-object", "string-replications",
            "string-train-fraction", "unknown-criterion-key", "ane-with-lambda",
            "numeric-path", "list-label-map", "list-label-map-value", "unknown-top-level-key",
            "unknown-dataset-key", "unknown-split-key", "unknown-tuning-key",
            "dataset-without-format", "validation-fraction-out-of-range"])
    def test_bad_config_exits_1(self, blob_csv, tmp_path, capsys, overrides, message):
        config = _bench_config(tmp_path, blob_csv, **{"criteria": [{"kind": "ane"}], **overrides})
        code = main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"split": {"train_fraction": 1.5}}, "train_fraction must lie in (0, 1), got 1.5"),
        ({"noise": [{"kind": "uniform", "eta": 5.0}]}, "noise eta must lie in [0, 1), got 5.0"),
    ], ids=["train-fraction", "noise-eta"])
    def test_a_value_out_of_range_fails_before_the_dataset_is_opened(self, tmp_path, capsys,
                                                                    overrides, message):
        config = _bench_config(tmp_path, tmp_path / "nope.csv", **overrides)
        code = main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == f"error: {message}\n"

    def test_dead_cell_worker_exits_1(self, blob_csv, tmp_path, capsys, monkeypatch):
        # two usable CPUs, so that the cells run on forked workers, which
        # inherit the patch and die in their first fit
        monkeypatch.setattr(dataeng, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dataeng, "_fit_model", lambda *args: os._exit(3))
        config = _bench_config(tmp_path, blob_csv)
        code = main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: a grid cell's worker process died: ")
        assert captured.err.count("\n") == 1 and multiprocessing.active_children() == []


class TestEntryPoints:
    def test_module_runs_as_a_script(self):
        # the script runs the package these tests import
        src = Path(robust_trees.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "robust_trees", "verify", "--suite", "noise"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["command"] == "verify"

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--suite", "noise"], 0),
        (["verify", "--suite", "nope"], 2),
    ], ids=["success", "bad-flag"])
    def test_entrypoint_exits_with_the_code_of_main(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["robust-trees", *argv])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        capsys.readouterr()
        assert exc.value.code == code


class TestVerify:
    @pytest.fixture(scope="class")
    def runs(self):
        """Each suite's (exit code, stdout, stderr) at --seed 0, run once for the class."""
        done = {}

        def run(suite):
            if suite not in done:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["verify", "--suite", suite, "--seed", "0"])
                done[suite] = code, out.getvalue(), err.getvalue()
            return done[suite]
        return run

    @pytest.mark.parametrize("suite", ["impurity", "early-stop", "hoeffding", "noise"])
    def test_suites_pass(self, suite, runs):
        code, out, _ = runs(suite)
        lines = out.splitlines()
        assert len(lines) == 1, f"expected exactly one stdout line, got {out!r}"
        status = json.loads(lines[0])
        assert code == 0
        assert status["failures"] == 0
        assert status["checks"] > 0

    def test_fault_injection_fails(self, capsys, monkeypatch):
        # one fault per suite, planted on a name the suite calls
        impurity, early_stop = verify.impurity, verify.exhaustive_early_stop_check

        def shifted(*args):
            value = impurity(*args)
            return replace(value, value=value.value + 1e-3)

        def flipped(*args):
            report = early_stop(*args)
            return replace(report, halts=not report.halts)

        faults = [
            ("impurity", "impurity", shifted),
            ("early-stop", "exhaustive_early_stop_check", flipped),
            ("hoeffding", "majority_preservation_mc", lambda *a, **kw: 0.0),
            ("noise", "corrupt", lambda labels, matrix, seed: np.asarray(labels)),
        ]
        for suite, name, fault in faults:
            with monkeypatch.context() as patch:
                patch.setattr(verify, name, fault)
                code, status, err = run_cli_full(capsys, "verify", "--suite", suite)
            assert code == 1 and status["failures"] >= 1 and "FAIL" in err, suite

    def test_table_goes_to_stderr(self, runs):
        _, out, err = runs("impurity")
        assert "PASS" in err
        assert "PASS" not in out
