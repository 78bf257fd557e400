"""Command-line front end.

Subcommands: train, predict, noise, tune, bench, verify.  On success each
command prints exactly one JSON status line to stdout (tables and progress
go to stderr).  Exit codes: 0 success, 1 data or check failure, 2 bad flags.
All commands are deterministic given their --seed.  ``bench`` evaluates grid
cells on forked worker processes, one per usable CPU (processes, because
threads contend for the interpreter lock), and its output is byte-identical
to a run on one CPU (see :func:`dataeng.evaluate`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataeng, noise as noise_mod
from .criteria import KINDS, CriterionSpec
from .dataeng import DEFAULT_LAMBDA_GRID, DEFAULT_VALIDATION_FRACTION, Dataset, ModelConfig
from .errors import _whole
from .forest import _model_predictions, _model_stats, load_model, save_model
from .verify import SUITES


def _status(payload: dict) -> None:
    print(json.dumps(payload))


def _load_dataset(args) -> Dataset:
    return dataeng.load_dataset(args.data, args.format, args.label_column, not args.no_header)


def _from_flags(parser: argparse.ArgumentParser, make, **kwargs):
    """``make(**kwargs)``; a ``ValueError`` is a flag mistake: exit 2."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _model_config_from_args(parser: argparse.ArgumentParser, args) -> ModelConfig:
    return _from_flags(
        parser, ModelConfig,
        kind="forest" if args.forest else "tree",
        max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
        n_trees=args.trees,
        bootstrap=not args.no_bootstrap,
        feature_subsample=args.feature_subsample,
    )


def _seed(text: str) -> int:
    """The argparse type of every --seed flag: an integer >= 0 that fits int64."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"a seed must be an integer >= 0, got {text!r}")
    try:
        return _whole("a seed", int(text), 0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_data_flags(sub):
    sub.add_argument("--data", required=True, help="input dataset path")
    sub.add_argument("--format", required=True, choices=dataeng.FORMATS)
    sub.add_argument("--label-column", default="label",
                     help="CSV label column name (or index with --no-header)")
    sub.add_argument("--no-header", action="store_true", help="CSV file has no header row")


def _add_model_flags(sub):
    sub.add_argument("--forest", action="store_true",
                     help="train a random forest instead of a single tree")
    sub.add_argument("--trees", type=int, default=ModelConfig.n_trees, help="forest size")
    sub.add_argument("--max-depth", type=int)
    sub.add_argument("--min-samples-leaf", type=int, default=ModelConfig.min_samples_leaf)
    sub.add_argument("--feature-subsample", type=int,
                     help="features drawn per split (forest default: ceil(sqrt(d)))")
    sub.add_argument("--no-bootstrap", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-trees",
        description="Noise-robust decision trees and random forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write it as JSON")
    _add_data_flags(p_train)
    p_train.add_argument("--criterion", required=True, choices=KINDS)
    p_train.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="NE robustness parameter in [0, 1]")
    p_train.add_argument("--q", type=float, default=None, help="GCE exponent, q >= 0")
    _add_model_flags(p_train)
    p_train.add_argument("--seed", type=_seed, default=0)
    p_train.add_argument("--out", required=True, help="output model path")

    p_pred = sub.add_parser("predict", help="apply a trained model to a dataset")
    _add_data_flags(p_pred)
    p_pred.add_argument("--no-labels", action="store_true",
                        help="CSV has feature columns only")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", default=None, help="optional predictions CSV")

    p_noise = sub.add_parser("noise", help="corrupt labels / emit a transition matrix")
    _add_data_flags(p_noise)
    p_noise.add_argument("--kind", required=True, choices=noise_mod.KINDS)
    p_noise.add_argument("--eta", type=float, default=noise_mod.NoiseSpec.eta)
    p_noise.add_argument("--rho-pos", type=float, default=noise_mod.NoiseSpec.rho_pos)
    p_noise.add_argument("--rho-neg", type=float, default=noise_mod.NoiseSpec.rho_neg)
    p_noise.add_argument("--ridge", type=float)
    p_noise.add_argument("--seed", type=_seed, default=0)
    p_noise.add_argument("--matrix-out", default=None, help="write the K x K matrix CSV")
    p_noise.add_argument("--out", default=None, help="write the corrupted dataset CSV")

    p_tune = sub.add_parser("tune", help="select the NE lambda on a validation shard")
    _add_data_flags(p_tune)
    p_tune.add_argument("--grid", default=",".join(f"{lam:g}" for lam in DEFAULT_LAMBDA_GRID),
                        help="comma-separated lambda values")
    p_tune.add_argument("--validation-fraction", type=float, default=DEFAULT_VALIDATION_FRACTION)
    _add_model_flags(p_tune)
    p_tune.add_argument("--seed", type=_seed, default=0)

    p_bench = sub.add_parser("bench", help="run an experiment config, write result CSVs")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True, help="results CSV path")
    p_bench.add_argument("--summary", default=None,
                         help="summary CSV path (default: summary.csv next to --out)")
    p_bench.add_argument("--timings", action="store_true",
                         help="record wall times (makes output non-reproducible)")

    p_verify = sub.add_parser("verify", help="run a brute-force oracle suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seed", type=_seed, default=0)
    return parser


def cmd_train(parser, args) -> int:
    spec = _from_flags(parser, CriterionSpec, kind=args.criterion, q=args.q, lam=args.lam)
    model_cfg = _model_config_from_args(parser, args)
    ds = _load_dataset(args)
    fitted = dataeng._fit_model(model_cfg, spec, ds.features, ds.labels,
                                ds.n_classes, args.seed)
    save_model(fitted, args.out)
    stats = _model_stats(fitted)
    acc = dataeng.accuracy_score(fitted, ds.features, ds.labels)
    _status({
        "command": "train", "criterion": spec.label(), "model": model_cfg.kind,
        "nodes": stats["node_count"], "leaves": stats["leaf_count"],
        "depth": stats["max_depth"], "train_accuracy": acc, "out": str(args.out),
    })
    return 0


def cmd_predict(parser, args) -> int:
    model = load_model(args.model)
    if args.no_labels:
        if args.format != "csv":
            parser.error("--no-labels applies to csv input only")
        X = dataeng.load_csv_features(args.data, header=not args.no_header)
        y = None
    else:
        # a LIBSVM file leaves its zeros out, so it is read at the model's width
        ds = (dataeng.load_libsvm(args.data, model.min_columns) if args.format == "libsvm"
              else _load_dataset(args))
        if ds.n_classes > model.n_classes:
            raise ValueError(f"the data has {ds.n_classes} classes, more than the"
                             f" model's {model.n_classes}")
        X, y = ds.features, ds.labels
    classes, dists = _model_predictions(model, X)
    if args.out:
        dataeng.write_csv(args.out, ["prediction"] + [f"p{k}" for k in range(dists.shape[1])],
                          ([int(c)] + [repr(float(v)) for v in dist]
                           for c, dist in zip(classes, dists)))
    payload = {"command": "predict", "n": int(X.shape[0])}
    if y is not None:
        payload["accuracy"] = float((classes == y).mean())
    if args.out:
        payload["out"] = str(args.out)
    _status(payload)
    return 0


def cmd_noise(parser, args) -> int:
    spec = _from_flags(parser, noise_mod.NoiseSpec, kind=args.kind, eta=args.eta,
                       rho_pos=args.rho_pos, rho_neg=args.rho_neg, ridge=args.ridge)
    ds = _load_dataset(args)
    matrix = spec.transition(ds.n_classes, features=ds.features, labels=ds.labels)
    noisy = noise_mod.corrupt(ds.labels, matrix, args.seed)
    if args.matrix_out:
        matrix.to_csv(args.matrix_out)
    if args.out:
        dataeng.write_csv(args.out, [f"f{j}" for j in range(ds.n_features)] + ["label"],
                          ([repr(float(v)) for v in row] + [ds.class_names[lab]]
                           for row, lab in zip(ds.features, noisy)))
    payload = {
        "command": "noise", "kind": args.kind,
        "flip_fraction": float((noisy != ds.labels).mean()),
        "diagonally_dominant": matrix.diagonally_dominant(),
    }
    if args.matrix_out:
        payload["matrix"] = str(args.matrix_out)
    if args.out:
        payload["out"] = str(args.out)
    _status(payload)
    return 0


def cmd_tune(parser, args) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    except ValueError:
        parser.error(f"--grid must be comma-separated numbers, got {args.grid!r}")
    grid = _from_flags(parser, dataeng._lambda_grid, grid=grid)
    _from_flags(parser, dataeng._check_validation_fraction, value=args.validation_fraction)
    model_cfg = _model_config_from_args(parser, args)
    ds = _load_dataset(args)
    best, scores = dataeng.tune_lambda(ds, grid, model_cfg, args.seed,
                                       args.validation_fraction)
    _status({
        "command": "tune", "best_lambda": best,
        "scores": {f"{lam:g}": acc for lam, acc in scores},
    })
    return 0


def cmd_bench(parser, args) -> int:
    summary_path = args.summary or str(Path(args.out).parent / "summary.csv")
    if Path(summary_path).resolve() == Path(args.out).resolve():
        parser.error(f"the summary path {summary_path} is the results path --out")
    config = dataeng.ExperimentConfig.from_json(args.config)
    records = dataeng.evaluate(config)
    dataeng.write_records_csv(records, args.out, timings=args.timings)
    dataeng.write_summary_csv(dataeng.aggregate(records), summary_path)
    _status({
        "command": "bench", "records": len(records),
        "out": str(args.out), "summary": summary_path,
    })
    return 0


def cmd_verify(parser, args) -> int:
    checks = SUITES[args.suite](seed=args.seed)
    failures = [c for c in checks if not c.passed]
    width = max(len(c.name) for c in checks)
    for c in checks:
        marker = "PASS" if c.passed else "FAIL"
        print(f"{marker}  {c.name:<{width}}  {c.detail}", file=sys.stderr)
    _status({
        "command": "verify", "suite": args.suite,
        "checks": len(checks), "failures": len(failures),
    })
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "predict": cmd_predict,
        "noise": cmd_noise,
        "tune": cmd_tune,
        "bench": cmd_bench,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](parser, args)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
