"""Dataset ingestion, deterministic splits, lambda tuning, and the experiment grid.

The experiment protocol: corrupt the training labels (never the test
labels), optionally pick the NE robustness parameter on a noisy 80/20
validation split, fit on the full noisy training set, and score on the
clean test set.  Each (criterion, noise, replication) cell derives its own
seeds, so results are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .criteria import CriterionSpec
from .forest import Forest, ForestParams, fit_forest, forest_stats, predict_forest_batch
from .noise import NoiseSpec, corrupt
from .tree import Tree, TreeParams, fit, predict_batch, tree_stats

RESULTS_HEADER = [
    "dataset", "criterion", "params", "noise", "seed",
    "accuracy", "nodes", "leaves", "depth", "seconds",
]
SUMMARY_HEADER = [
    "dataset", "criterion", "noise", "replications", "mean_accuracy", "two_sd",
]
DEFAULT_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be n x d with one label per row")
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        if y.size and (y.min() < 0 or y.max() >= len(self.class_names)):
            raise ValueError("labels out of range of class_names")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


class DataFormatError(ValueError):
    """Malformed input file; the message carries the offending line number."""


def _index_labels(raw_labels: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    mapping: dict[str, int] = {}
    out = np.empty(len(raw_labels), dtype=np.int64)
    for i, name in enumerate(raw_labels):
        if name not in mapping:
            mapping[name] = len(mapping)
        out[i] = mapping[name]
    return out, tuple(mapping)


def load_csv(path, label_column="label", header: bool = True) -> Dataset:
    """Load a dense CSV dataset (RFC-4180 quoting).

    ``label_column`` is a column name when the file has a header, or a
    0-based column index otherwise (an integer is accepted either way).
    All non-label columns are parsed as float features.
    """
    features, raw_labels = _parse_csv(path, label_column, header)
    labels, class_names = _index_labels(raw_labels)
    return Dataset(features, labels, class_names)


def load_csv_features(path, header: bool = True) -> np.ndarray:
    """Load a CSV of feature columns only, checked as :func:`load_csv` checks them."""
    return _parse_csv(path, None, header)[0]


def _parse_csv(path, label_column, header: bool) -> tuple[np.ndarray, list[str]]:
    """Finite float features and raw labels of a CSV file (no labels if
    ``label_column`` is None); malformed rows raise naming ``path:line``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    offset = 1 if header else 0
    label_idx = label_column
    if label_column is not None and not isinstance(label_column, int):
        if header:
            try:
                label_idx = rows[0].index(str(label_column))
            except ValueError:
                raise DataFormatError(
                    f"{path}: no column named {label_column!r} in header"
                ) from None
        else:
            try:
                label_idx = int(label_column)
            except (TypeError, ValueError):
                raise DataFormatError(
                    f"{path}: without a header, label_column must be an integer index"
                ) from None
    body = rows[offset:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")
    width = len(body[0])
    if label_idx is not None:
        if not (-width <= label_idx < width):
            raise DataFormatError(f"{path}: label column {label_idx} out of range")
        label_idx %= width
    raw_labels: list[str] = []
    features = np.empty((len(body), width - (label_idx is not None)), dtype=np.float64)
    for i, row in enumerate(body):
        lineno = i + offset + 1
        if len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        if label_idx is not None:
            raw_labels.append(row[label_idx])
        j = 0
        for c, tok in enumerate(row):
            if c == label_idx:
                continue
            try:
                value = float(tok)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: cannot parse {tok!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(f"{path}:{lineno}: non-finite feature value {tok!r}")
            features[i, j] = value
            j += 1
    return features, raw_labels


def load_libsvm(path, n_features: int | None = None) -> Dataset:
    """Load a sparse LIBSVM text file into a dense dataset.

    Lines are ``label index:value ...`` with 1-based, strictly ascending
    indices; absent indices become 0.0.
    """
    raw_labels: list[str] = []
    entries: list[list[tuple[int, float]]] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            raw_labels.append(tokens[0])
            row: list[tuple[int, float]] = []
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_str, val_str = tok.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: malformed feature token {tok!r}"
                    ) from None
                if idx <= prev:
                    raise DataFormatError(
                        f"{path}:{lineno}: indices must be 1-based and ascending"
                    )
                if not math.isfinite(val):
                    raise DataFormatError(f"{path}:{lineno}: non-finite value {tok!r}")
                prev = idx
                row.append((idx, val))
            if row:
                max_index = max(max_index, row[-1][0])
            entries.append(row)
    if not raw_labels:
        raise DataFormatError(f"{path}: empty file")
    d = max_index if n_features is None else int(n_features)
    if d < max_index:
        raise DataFormatError(f"{path}: feature index {max_index} exceeds n_features={d}")
    features = np.zeros((len(entries), d), dtype=np.float64)
    for i, row in enumerate(entries):
        for idx, val in row:
            features[i, idx - 1] = val
    labels, class_names = _index_labels(raw_labels)
    return Dataset(features, labels, class_names)


def apply_label_map(dataset: Dataset, mapping: dict) -> Dataset:
    """Collapse classes via a many-to-one name mapping.

    Unmapped class names keep their own name; new indices follow first
    appearance in row order.
    """
    source = [mapping.get(name, name) for name in dataset.class_names]
    mapped_names = [source[c] for c in dataset.labels]
    labels, class_names = _index_labels(mapped_names)
    return Dataset(dataset.features, labels, class_names)


def train_test_split(dataset: Dataset, train_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; train gets floor(n * fraction) rows."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = dataset.n_samples
    n_train = int(n * train_fraction)
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} rows at {train_fraction} leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]

    def take(rows):
        return Dataset(dataset.features[rows], dataset.labels[rows], dataset.class_names)

    return take(tr), take(te)


@dataclass(frozen=True)
class ModelConfig:
    """Tree-versus-forest choice plus shared hyperparameters."""

    kind: str = "tree"
    max_depth: int | None = None
    min_samples_leaf: int = 1
    n_trees: int = 100
    bootstrap: bool = True
    feature_subsample: int | None = None

    def __post_init__(self):
        if self.kind not in ("tree", "forest"):
            raise ValueError(f"model kind must be 'tree' or 'forest', got {self.kind!r}")

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            kind=d.get("kind", "tree"),
            max_depth=d.get("max_depth"),
            min_samples_leaf=d.get("min_samples_leaf", 1),
            n_trees=d.get("n_trees", 100),
            bootstrap=d.get("bootstrap", True),
            feature_subsample=d.get("feature_subsample"),
        )


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _fit_model(model: ModelConfig, spec: CriterionSpec, X, y, n_classes: int, seed: int):
    tp = TreeParams(
        criterion=spec,
        max_depth=model.max_depth,
        min_samples_leaf=model.min_samples_leaf,
        feature_subsample=model.feature_subsample,
        rng_seed=seed,
    )
    if model.kind == "tree":
        return fit(X, y, tp, n_classes=n_classes)
    fp = ForestParams(tree_params=tp, n_trees=model.n_trees,
                      bootstrap=model.bootstrap, rng_seed=seed)
    return fit_forest(X, y, fp, n_classes=n_classes)


def _model_predictions(fitted, X) -> np.ndarray:
    if isinstance(fitted, Tree):
        return predict_batch(fitted, X)[0]
    return predict_forest_batch(fitted, X)[0]


def _model_stats(fitted) -> dict:
    return tree_stats(fitted) if isinstance(fitted, Tree) else forest_stats(fitted)


def accuracy_score(fitted, X, y) -> float:
    return float((_model_predictions(fitted, X) == np.asarray(y)).mean())


def tune_lambda(
    train: Dataset,
    grid,
    model: ModelConfig,
    seed,
    validation_fraction: float = 0.2,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the NE robustness parameter on a held-out shard of noisy data.

    Fits one model per grid value on 1 - validation_fraction of ``train``
    and scores plain accuracy on the rest (labels as given, noisy or not).
    Ties go to the larger lambda.  Returns (best lambda, per-lambda scores).
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    split_seed, model_stream = base.spawn(2)
    fit_part, val_part = train_test_split(train, 1.0 - validation_fraction, split_seed)
    if fit_part.n_samples < 1 or val_part.n_samples < 1:
        raise ValueError("tuning shards are too small")
    model_seed = int(model_stream.generate_state(1)[0])
    scores: list[tuple[float, float]] = []
    best_lam, best_acc = grid[0], -1.0
    for lam in sorted(grid):
        fitted = _fit_model(model, CriterionSpec("ne", lam=lam),
                            fit_part.features, fit_part.labels,
                            train.n_classes, model_seed)
        acc = accuracy_score(fitted, val_part.features, val_part.labels)
        scores.append((lam, acc))
        if acc >= best_acc:  # ascending grid, so >= keeps the largest tied lambda
            best_lam, best_acc = lam, acc
    return best_lam, scores


@dataclass(frozen=True)
class CriterionSetting:
    """A criterion column of the experiment grid; ``adaptive`` means NE with
    lambda tuned per replication."""

    name: str
    spec: CriterionSpec | None = None
    adaptive: bool = False

    @staticmethod
    def from_dict(d: dict) -> "CriterionSetting":
        kind = d["kind"]
        if kind == "ane":
            return CriterionSetting(name="ane", adaptive=True)
        spec = CriterionSpec(kind=kind, q=d.get("q"), lam=d.get("lambda"))
        return CriterionSetting(name=kind, spec=spec)

    def params_label(self) -> str:
        if self.spec is None:
            return ""
        if self.spec.kind == "gce":
            return f"q={self.spec.q:g}"
        if self.spec.kind == "ne":
            return f"lambda={self.spec.lam:g}"
        return ""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    dataset_format: str
    criteria: tuple[CriterionSetting, ...]
    noise: tuple[NoiseSpec, ...]
    model: ModelConfig = ModelConfig()
    label_column: str | int = "label"
    header: bool = True
    label_map: dict | None = None
    dataset_name: str | None = None
    train_fraction: float = 0.8
    split_seed: int = 0
    replications: int = 5
    seed: int = 0
    tuning_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")
        if self.dataset_format not in ("csv", "libsvm"):
            raise ValueError("dataset format must be 'csv' or 'libsvm'")
        if not self.criteria or not self.noise:
            raise ValueError("need at least one criterion and one noise setting")
        grid = self.tuning_grid
        if not isinstance(grid, (list, tuple)) or not grid:
            raise ValueError(f"tuning grid must be a non-empty list of lambdas, got {grid!r}")
        try:
            for lam in grid:
                CriterionSpec("ne", lam=lam)
        except ValueError as exc:
            raise ValueError(f"tuning grid: {exc}") from None
        object.__setattr__(self, "tuning_grid", tuple(float(lam) for lam in grid))

    @staticmethod
    def from_dict(d: dict, base_dir=None) -> "ExperimentConfig":
        ds = d["dataset"]
        path = Path(ds["path"])
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        split = d.get("split", {})
        tuning = d.get("tuning", {})
        return ExperimentConfig(
            dataset_path=str(path),
            dataset_format=ds["format"],
            label_column=ds.get("label_column", "label"),
            header=ds.get("header", True),
            label_map=ds.get("label_map"),
            dataset_name=ds.get("name"),
            criteria=tuple(CriterionSetting.from_dict(c) for c in d["criteria"]),
            noise=tuple(NoiseSpec.from_dict(nz) for nz in d["noise"]),
            model=ModelConfig.from_dict(d.get("model", {})),
            train_fraction=split.get("train_fraction", 0.8),
            split_seed=split.get("seed", 0),
            replications=d.get("replications", 5),
            seed=d.get("seed", 0),
            tuning_grid=tuning.get("grid", DEFAULT_LAMBDA_GRID),
            validation_fraction=tuning.get("validation_fraction", 0.2),
        )

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh), base_dir=Path(path).parent)


@dataclass(frozen=True)
class ResultRecord:
    dataset: str
    criterion: str
    params: str
    noise: str
    seed: int
    accuracy: float
    nodes: int
    leaves: int
    depth: int
    seconds: float

    def row(self) -> list:
        return [
            self.dataset, self.criterion, self.params, self.noise, self.seed,
            repr(self.accuracy), self.nodes, self.leaves, self.depth,
            f"{self.seconds:.3f}",
        ]


def load_experiment_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset_format == "csv":
        ds = load_csv(config.dataset_path, label_column=config.label_column,
                      header=config.header)
    else:
        ds = load_libsvm(config.dataset_path)
    if config.label_map:
        ds = apply_label_map(ds, config.label_map)
    return ds


def evaluate(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the full (criterion x noise x replication) grid.

    Noise corrupts training labels only; the same noisy labels are shared by
    all criteria within one (noise, replication) cell so criteria compete on
    identical data.  Output order and content depend only on the config.
    Cells run one after another on the calling thread: a split search is a
    chain of short numpy calls, and on a thread pool they contended for the
    interpreter lock, which made a 2-thread grid about 20% slower than 1.
    """
    ds = load_experiment_dataset(config)
    name = config.dataset_name or Path(config.dataset_path).stem
    train, test = train_test_split(ds, config.train_fraction, config.split_seed)
    k = ds.n_classes

    transitions = [
        nz.transition(k, features=train.features, labels=train.labels)
        for nz in config.noise
    ]

    tasks = [
        (ci, ni, rep)
        for ci in range(len(config.criteria))
        for ni in range(len(config.noise))
        for rep in range(config.replications)
    ]

    def run(task) -> ResultRecord:
        ci, ni, rep = task
        try:
            return _run_cell(task)
        except Exception as exc:
            error = ValueError if isinstance(exc, ValueError) else RuntimeError
            raise error(
                f"evaluation failed at criterion={config.criteria[ci].name} "
                f"noise={config.noise[ni].label()} replication={rep}: {exc}"
            ) from exc

    def _run_cell(task) -> ResultRecord:
        ci, ni, rep = task
        setting = config.criteria[ci]
        corrupt_seed = np.random.SeedSequence((config.seed, ni, rep))
        noisy = corrupt(train.labels, transitions[ni], corrupt_seed)
        started = time.perf_counter()
        if setting.adaptive:
            noisy_train = Dataset(train.features, noisy, train.class_names)
            best_lam, _ = tune_lambda(
                noisy_train, config.tuning_grid, config.model,
                np.random.SeedSequence((config.seed, ni, rep, ci, 2)),
                config.validation_fraction,
            )
            spec = CriterionSpec("ne", lam=best_lam)
            params_label = f"lambda={best_lam:g}"
        else:
            spec = setting.spec
            params_label = setting.params_label()
        fitted = _fit_model(config.model, spec, train.features, noisy, k,
                            _seed_int(config.seed, ni, rep, ci, 1))
        acc = accuracy_score(fitted, test.features, test.labels)
        elapsed = time.perf_counter() - started
        stats = _model_stats(fitted)
        return ResultRecord(
            dataset=name,
            criterion=setting.name,
            params=params_label,
            noise=config.noise[ni].label(),
            seed=_seed_int(config.seed, ni, rep),
            accuracy=acc,
            nodes=stats["node_count"],
            leaves=stats["leaf_count"],
            depth=stats["max_depth"],
            seconds=elapsed,
        )

    return [run(t) for t in tasks]


def aggregate(records: list[ResultRecord]) -> list[dict]:
    """Mean accuracy with a 2-standard-deviation band per grid cell."""
    cells: dict[tuple, list[float]] = {}
    order: list[tuple] = []
    for rec in records:
        key = (rec.dataset, rec.criterion, rec.noise)
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(rec.accuracy)
    out = []
    for key in order:
        accs = np.asarray(cells[key])
        two_sd = 2.0 * float(accs.std(ddof=1)) if accs.size > 1 else 0.0
        out.append(
            {
                "dataset": key[0],
                "criterion": key[1],
                "noise": key[2],
                "replications": int(accs.size),
                "mean_accuracy": float(accs.mean()),
                "two_sd": two_sd,
            }
        )
    return out


def write_csv(path, header: list, rows) -> None:
    """Write a header row and then ``rows`` as CSV (the csv module's default dialect)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records: list[ResultRecord], path, timings: bool = False) -> None:
    """Write the results table; timings are zeroed unless requested so that
    reruns with the same seeds produce byte-identical files."""
    rows = (rec.row() if timings else rec.row()[:-1] + ["0.000"] for rec in records)
    write_csv(path, RESULTS_HEADER, rows)


def write_summary_csv(summary: list[dict], path) -> None:
    write_csv(path, SUMMARY_HEADER, (
        [cell["dataset"], cell["criterion"], cell["noise"], cell["replications"],
         repr(cell["mean_accuracy"]), repr(cell["two_sd"])]
        for cell in summary
    ))
