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
import os
import threading
import time
from array import array
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .criteria import CriterionSpec
from .errors import _check_type, _from_json, _interval, _json, _labelled, _read, _whole
from .forest import ForestParams, fit_forest, forest_stats, predict_forest_batch, save_forest
from .noise import NoiseSpec, corrupt
from .tree import Tree, TreeParams, fit, predict_batch, save_tree, tree_stats

SUMMARY_HEADER = [
    "dataset", "criterion", "noise", "replications", "mean_accuracy", "two_sd",
]
DEFAULT_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_VALIDATION_FRACTION = 0.2
FORMATS = ("csv", "libsvm")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        X, y = _labelled(self.features, self.labels, len(self.class_names), "class_names")
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
        return _parse_rows(path, csv.reader(fh), label_column, header)


def _parse_rows(path, reader, label_column, header: bool) -> tuple[np.ndarray, list[str]]:
    """:func:`_parse_csv` of the rows of ``reader``.

    Rows stream into one typed buffer of 8 bytes per value.  A row whose
    values do not all parse, or whose sum is not finite, is read again token
    by token, so the first bad token of the first bad row is the one named.
    """
    top = next(reader, None)
    if top is None:
        raise DataFormatError(f"{path}: empty file")
    offset = 1 if header else 0
    label_idx = label_column
    if label_column is not None and not isinstance(label_column, int):
        if header:
            try:
                label_idx = top.index(str(label_column))
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
    first = next(reader, None) if header else top
    if first is None:
        raise DataFormatError(f"{path}: no data rows")
    width = len(first)
    if label_idx is not None:
        if not (-width <= label_idx < width):
            raise DataFormatError(f"{path}: label column {label_idx} out of range")
        label_idx %= width
    raw_labels: list[str] = []
    values = array("d")
    n_rows = 0
    for lineno, row in enumerate(chain([first], reader), start=offset + 1):
        if len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        if label_idx is not None:
            raw_labels.append(row.pop(label_idx))
        try:
            parsed = list(map(float, row))
        except ValueError:
            parsed = None
        if parsed is None or not math.isfinite(sum(parsed)):
            parsed = _finite_floats(path, lineno, row)
        values.fromlist(parsed)
        n_rows += 1
    d = width - (label_idx is not None)
    return np.frombuffer(values, dtype=np.float64).reshape(n_rows, d), raw_labels


def _finite_floats(path, lineno: int, tokens: list[str]) -> list[float]:
    """``tokens`` as floats, or ``DataFormatError`` naming the first one that
    does not parse or is not finite."""
    out = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: cannot parse {tok!r} as a number") from None
        if not math.isfinite(value):
            raise DataFormatError(f"{path}:{lineno}: non-finite feature value {tok!r}")
        out.append(value)
    return out


def _physical_memory() -> float:
    """Physical memory in bytes, or infinity where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _zeros(n: int, d: int, path) -> np.ndarray:
    """An n x d float64 matrix of zeros, or ``DataFormatError`` naming
    ``path`` when it does not fit in memory."""
    try:
        if 8 * n * d > _physical_memory():  # an overcommitted allocation may not fail
            raise MemoryError
        return np.zeros((n, d), dtype=np.float64)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest dimension
        raise DataFormatError(f"{path}: a dense {n} x {d} float64 matrix does not"
                              " fit in memory") from None


def load_libsvm(path, n_features: int = 0) -> Dataset:
    """Load a sparse LIBSVM text file into a dense dataset.

    Lines are ``label index:value ...`` with 1-based, strictly ascending
    indices; absent indices become 0.0.  The matrix has the largest index's
    columns, or ``n_features`` if that is more: the file leaves its zero
    entries out, so its rows may end before a feature that a model splits
    on.  The nonzero values stream into typed buffers (8 bytes per index and
    per value) until the dense matrix is filled in one assignment; one that
    does not fit in memory fails.
    """
    raw_labels: list[str] = []
    lengths, cols, vals = array("q"), array("q"), array("d")
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            raw_labels.append(tokens[0])
            row_cols: list[int] = []
            row_vals: list[float] = []
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
                row_cols.append(idx)
                row_vals.append(val)
            if row_cols:
                max_index = max(max_index, row_cols[-1])
            lengths.append(len(row_cols))
            vals.fromlist(row_vals)
            try:
                cols.fromlist(row_cols)
            except OverflowError:  # past int64: no matrix is that wide, which fails below
                pass
    if not raw_labels:
        raise DataFormatError(f"{path}: empty file")
    features = _zeros(len(lengths), max(max_index, n_features), path)
    rows = np.repeat(np.arange(len(lengths)), np.frombuffer(lengths, dtype=np.int64))
    features[rows, np.frombuffer(cols, dtype=np.int64) - 1] = np.frombuffer(vals, dtype=np.float64)
    labels, class_names = _index_labels(raw_labels)
    return Dataset(features, labels, class_names)


def load_dataset(path, fmt: str, label_column="label", header: bool = True,
                 label_map: dict | None = None) -> Dataset:
    """Load a ``csv`` file (see :func:`load_csv`) or a ``libsvm`` one, then
    collapse its classes by ``label_map`` if given."""
    if fmt not in FORMATS:
        raise ValueError(f"dataset format must be one of {FORMATS}, got {fmt!r}")
    ds = load_csv(path, label_column, header) if fmt == "csv" else load_libsvm(path)
    return apply_label_map(ds, label_map) if label_map else ds


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
    _interval("train_fraction", train_fraction, 0.0, 1.0, "()")
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
    """Tree-versus-forest choice plus shared hyperparameters, each checked
    on construction by the rules of :class:`TreeParams` and
    :class:`ForestParams` (a tree's ``n_trees`` and ``bootstrap`` too)."""

    kind: str = "tree"
    max_depth: int | None = None
    min_samples_leaf: int = 1
    n_trees: int = 100
    bootstrap: bool = True
    feature_subsample: int | None = None

    def __post_init__(self):
        if self.kind not in ("tree", "forest"):
            raise ValueError(f"model kind must be 'tree' or 'forest', got {self.kind!r}")
        self.params(CriterionSpec("gini"), 0)

    def params(self, spec: CriterionSpec, seed: int) -> TreeParams | ForestParams:
        """The params of a fit by ``spec`` seeded by ``seed``: a tree's, or a
        forest's, whose trees draw only from the forest's seed."""
        forest = ForestParams(TreeParams(spec, self.max_depth, self.min_samples_leaf,
                                         self.feature_subsample),
                              self.n_trees, self.bootstrap, seed)
        return forest if self.kind == "forest" else replace(forest.tree_params, rng_seed=seed)


def _seed_int(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _fit_model(model: ModelConfig, spec: CriterionSpec, X, y, n_classes: int, seed: int):
    params = model.params(spec, seed)
    fitter = fit_forest if isinstance(params, ForestParams) else fit
    return fitter(X, y, params, n_classes=n_classes)


def _model_predictions(fitted, X) -> tuple[np.ndarray, np.ndarray]:
    """Predicted classes and class distributions of a tree or a forest."""
    return (predict_batch if isinstance(fitted, Tree) else predict_forest_batch)(fitted, X)


def _model_stats(fitted) -> dict:
    return tree_stats(fitted) if isinstance(fitted, Tree) else forest_stats(fitted)


def _save_model(fitted, path) -> None:
    (save_tree if isinstance(fitted, Tree) else save_forest)(fitted, path)


def accuracy_score(fitted, X, y) -> float:
    return float((_model_predictions(fitted, X)[0] == np.asarray(y)).mean())


def _check_validation_fraction(value: float) -> None:
    _interval("validation_fraction", value, 0.0, 1.0, "()")


def _lambda_grid(grid) -> tuple[float, ...]:
    """A tuning grid as floats: a non-empty sequence (a numpy array, not a
    string) of lambdas, each checked as an NE criterion's, else ``ValueError``."""
    if isinstance(grid, np.ndarray):
        grid = grid.tolist()
    if isinstance(grid, str) or not isinstance(grid, Sequence) or not grid:
        raise ValueError(f"tuning grid must be a non-empty list of lambdas, got {grid!r}")
    try:
        return tuple(float(CriterionSpec("ne", lam=lam).lam) for lam in grid)
    except ValueError as exc:
        raise ValueError(f"tuning grid: {exc}") from None


def tune_lambda(
    train: Dataset,
    grid,
    model: ModelConfig,
    seed,
    validation_fraction: float = DEFAULT_VALIDATION_FRACTION,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the NE robustness parameter on a held-out shard of noisy data.

    Fits one model per grid value on 1 - validation_fraction of ``train``
    and scores plain accuracy on the rest (labels as given, noisy or not).
    Ties go to the larger lambda.  Returns (best lambda, per-lambda scores).
    The whole grid is checked (see :func:`_lambda_grid`) before the first fit.
    """
    grid = _lambda_grid(grid)
    _check_validation_fraction(validation_fraction)
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    split_seed, model_stream = base.spawn(2)
    fit_part, val_part = train_test_split(train, 1.0 - validation_fraction, split_seed)
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
    """A criterion column of the experiment grid; no ``spec`` (``ane``) means
    NE with lambda tuned per replication."""

    name: str
    spec: CriterionSpec | None = None

    @staticmethod
    def from_dict(d: dict) -> "CriterionSetting":
        if _json(d, dict, "criterion").get("kind") == "ane":
            _read("criterion", d, ("kind",))  # lambda is tuned, never given
            return CriterionSetting(name="ane")
        spec = CriterionSpec.from_dict(d)
        return CriterionSetting(name=spec.kind, spec=spec)


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
    validation_fraction: float = DEFAULT_VALIDATION_FRACTION

    def __post_init__(self):
        _check_type("header", self.header, bool)
        _interval("train_fraction", self.train_fraction, 0.0, 1.0, "()")
        for name in ("split_seed", "seed"):
            _whole(name, getattr(self, name), 0)
        _whole("replications", self.replications, 1)
        _check_validation_fraction(self.validation_fraction)
        if not self.criteria or not self.noise:
            raise ValueError("need at least one criterion and one noise setting")
        object.__setattr__(self, "tuning_grid", _lambda_grid(self.tuning_grid))

    @staticmethod
    def from_dict(d: dict, base_dir=None) -> "ExperimentConfig":
        """Read a config's JSON object, its sections by :data:`_CONFIG_SECTIONS`;
        an unknown or missing key, or a value of the wrong JSON type, raises
        ``ValueError`` naming it.  Absent keys take the fields' defaults."""
        config = _read("experiment config", d, (*_CONFIG_SECTIONS, "criteria", "noise", "model",
                                                "replications", "seed"),
                       ("dataset", "criteria", "noise"))
        for section, (keys, required) in _CONFIG_SECTIONS.items():
            if section in config:
                config.update(_read(section, config.pop(section), keys, required))
        path = Path(_json(config["dataset_path"], str, "dataset path"))
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        config["dataset_path"] = str(path)
        if config.get("label_map") is not None:
            for name in _json(config["label_map"], dict, "label_map").values():
                _json(name, str, "label_map value")
        config["criteria"] = tuple(CriterionSetting.from_dict(c)
                                   for c in _json(config["criteria"], list, "criteria"))
        config["noise"] = tuple(NoiseSpec.from_dict(nz)
                                for nz in _json(config["noise"], list, "noise"))
        if "model" in config:
            config["model"] = _from_json(ModelConfig, config["model"], "model")
        return ExperimentConfig(**config)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh), base_dir=Path(path).parent)


# the sections of a config whose keys are ExperimentConfig fields: each
# JSON key -> its field, and the required keys
_CONFIG_SECTIONS = {
    "dataset": ({"path": "dataset_path", "format": "dataset_format", "name": "dataset_name",
                 "label_column": "label_column", "header": "header", "label_map": "label_map"},
                ("path", "format")),
    "split": ({"train_fraction": "train_fraction", "seed": "split_seed"}, ()),
    "tuning": ({"grid": "tuning_grid", "validation_fraction": "validation_fraction"}, ()),
}


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
        """The CSV row: the fields in order, the seconds to the millisecond."""
        return [*astuple(self)[:-1], f"{self.seconds:.3f}"]


RESULTS_HEADER = [f.name for f in fields(ResultRecord)]


@dataclass(frozen=True)
class _Grid:
    """What every cell of one :func:`evaluate` call reads: the config, the
    dataset's name, its train/test split and each noise setting's matrix."""
    config: ExperimentConfig
    name: str
    train: Dataset
    test: Dataset
    transitions: list


# the grid of a cell worker process, set once by the pool's initializer (never
# in the process that calls evaluate)
_worker_grid: _Grid | None = None


def _start_worker(grid: _Grid) -> None:
    global _worker_grid
    _worker_grid = grid


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def evaluate(config: ExperimentConfig) -> list[ResultRecord]:
    """Run the full (criterion x noise x replication) grid.

    Noise corrupts training labels only; the same noisy labels are shared by
    all criteria within one (noise, replication) cell so criteria compete on
    identical data.  Output order and content depend only on the config.

    Cells run on forked worker processes, one per usable CPU and at most one
    per cell, and their records come back in task order, so the output is
    byte-identical to a run on one CPU.  Processes, because a split search is
    a chain of short numpy calls and threads contend for the interpreter
    lock: a 2-thread grid was about 20% slower than 1.  ``fork``, because a
    ``spawn`` or ``forkserver`` worker imports the package afresh, which
    added about 0.3 s to a small grid on a 2-CPU machine; the workers inherit
    the shared :class:`_Grid` from the pool's initializer, unpickled.  With
    one usable CPU, one cell, no ``fork`` on the platform, or another Python
    thread running (a forked child could inherit a lock it holds), the cells
    run one after another in the calling process.  After a failed cell, the
    cells not yet started are cancelled and every worker is joined before
    the error is raised; a worker that dies raises ``ChildProcessError``.
    """
    ds = load_dataset(config.dataset_path, config.dataset_format, config.label_column,
                      config.header, config.label_map)
    train, test = train_test_split(ds, config.train_fraction, config.split_seed)
    transitions = [
        nz.transition(ds.n_classes, features=train.features, labels=train.labels)
        for nz in config.noise
    ]
    grid = _Grid(config, config.dataset_name or Path(config.dataset_path).stem,
                 train, test, transitions)
    tasks = [
        (ci, ni, rep)
        for ci in range(len(config.criteria))
        for ni in range(len(config.noise))
        for rep in range(config.replications)
    ]
    workers = min(len(tasks), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_run_cell(grid, task) for task in tasks]
    # imported here, as the pool's modules add about 2 MB to a process
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(grid,))
    try:
        cells = [pool.submit(_pooled_cell, task) for task in tasks]
        return [cell.result() for cell in cells]
    except BrokenExecutor as exc:
        raise ChildProcessError(f"a grid cell's worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _pooled_cell(task: tuple) -> ResultRecord:
    return _run_cell(_worker_grid, task)


def _run_cell(grid: _Grid, task: tuple) -> ResultRecord:
    """The record of one (criterion, noise, replication) cell, whose seeds
    derive from the config's seed and the cell's indices alone.  Any error
    is raised again as a ``ValueError`` (for a ``ValueError``) or a
    ``RuntimeError`` that names the cell."""
    config, train = grid.config, grid.train
    ci, ni, rep = task
    setting = config.criteria[ci]
    try:
        corrupt_seed = np.random.SeedSequence((config.seed, ni, rep))
        noisy = corrupt(train.labels, grid.transitions[ni], corrupt_seed)
        started = time.perf_counter()
        if setting.spec is None:
            noisy_train = Dataset(train.features, noisy, train.class_names)
            best_lam, _ = tune_lambda(
                noisy_train, config.tuning_grid, config.model,
                np.random.SeedSequence((config.seed, ni, rep, ci, 2)),
                config.validation_fraction,
            )
            spec = CriterionSpec("ne", lam=best_lam)
        else:
            spec = setting.spec
        fitted = _fit_model(config.model, spec, train.features, noisy, train.n_classes,
                            _seed_int(config.seed, ni, rep, ci, 1))
        acc = accuracy_score(fitted, grid.test.features, grid.test.labels)
        elapsed = time.perf_counter() - started
        stats = _model_stats(fitted)
    except Exception as exc:
        error = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise error(
            f"evaluation failed at criterion={setting.name} "
            f"noise={config.noise[ni].label()} replication={rep}: {exc}"
        ) from exc
    return ResultRecord(
        dataset=grid.name,
        criterion=setting.name,
        params=spec.params_label(),
        noise=config.noise[ni].label(),
        seed=_seed_int(config.seed, ni, rep),
        accuracy=acc,
        nodes=stats["node_count"],
        leaves=stats["leaf_count"],
        depth=stats["max_depth"],
        seconds=elapsed,
    )


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
    write_csv(path, SUMMARY_HEADER, ([cell[key] for key in SUMMARY_HEADER] for cell in summary))
