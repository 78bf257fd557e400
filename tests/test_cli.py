"""Command-line interface: flags, exit codes, JSON status lines, file outputs."""

import json

import numpy as np
import pytest

from robust_trees.cli import main
from robust_trees.tree import load_tree, predict_batch
from synth import gaussian_blobs, write_csv


@pytest.fixture()
def blob_csv(tmp_path):
    X, y = gaussian_blobs(80, [[-3, 0], [3, 0]], scale=0.6, seed=1)
    path = tmp_path / "blobs.csv"
    write_csv(path, X, y, class_names=["neg", "pos"])
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
    ])
    def test_wrong_json_type_exits_1(self, tmp_path, blob_csv, capsys, content, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content))
        code = main(["predict", "--model", str(model), "--data", str(blob_csv),
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"


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


class TestTune:
    def test_reports_best_lambda(self, blob_csv, capsys):
        code, status = run_cli(
            capsys, "tune", "--data", str(blob_csv), "--format", "csv",
            "--grid", "0,0.5,1", "--seed", "2",
        )
        assert code == 0
        assert status["best_lambda"] in (0.0, 0.5, 1.0)
        assert set(status["scores"]) == {"0", "0.5", "1"}


def _bench_config(tmp_path, data_path, reps=2, **overrides):
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

    def test_byte_identical_across_runs_and_threads(self, blob_csv, tmp_path,
                                                    capsys, monkeypatch):
        config = _bench_config(tmp_path, blob_csv)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "8"), ("c.csv", "1")):
            monkeypatch.setenv("ROBUST_TREES_THREADS", threads)
            out = tmp_path / name
            assert main(["bench", "--config", str(config), "--out", str(out),
                         "--summary", str(tmp_path / f"s_{name}")]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("overrides,message", [
        ({"tuning": {"grid": []}}, "error: tuning grid must be a non-empty list"),
        ({"tuning": {"grid": [2.0]}}, "error: tuning grid: ne lambda must be in [0, 1]"),
        ({"tuning": {"grid": ["x"]}}, "error: tuning grid: criterion lambda must be a real"),
        ({"tuning": {"grid": "0.5"}}, "error: tuning grid must be a non-empty list"),
        ({"model": {"min_samples_leaf": 0}},
         "error: evaluation failed at criterion=ane noise=uniform(0) replication=0:"
         " min_samples_leaf must be >= 1"),
    ], ids=["empty-grid", "lambda-out-of-range", "lambda-not-a-number", "string-grid",
            "cell-value-error"])
    def test_bad_config_exits_1(self, blob_csv, tmp_path, capsys, overrides, message):
        config = _bench_config(tmp_path, blob_csv, criteria=[{"kind": "ane"}], **overrides)
        code = main(["bench", "--config", str(config), "--out", str(tmp_path / "r.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1


class TestVerify:
    @pytest.mark.parametrize("suite", ["impurity", "early-stop", "noise"])
    def test_suites_pass(self, suite, capsys):
        code, status = run_cli(capsys, "verify", "--suite", suite, "--seed", "0")
        assert code == 0
        assert status["failures"] == 0
        assert status["checks"] > 0

    def test_fault_injection_fails(self, capsys):
        code, status, err = run_cli_full(capsys, "verify", "--suite", "impurity",
                                         "--inject-fault")
        assert code == 1 and status["failures"] >= 1
        assert "FAIL" in err

    def test_table_goes_to_stderr(self, capsys):
        main(["verify", "--suite", "impurity", "--seed", "1"])
        captured = capsys.readouterr()
        assert "PASS" in captured.err
        assert "PASS" not in captured.out
