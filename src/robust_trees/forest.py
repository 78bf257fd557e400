"""Random forests over the tree learner.

Each tree trains on a bootstrap resample (optional) with per-split feature
subsampling, defaulting to ceil(sqrt(d)) features per split and 100 trees.
Every tree draws from its own generator, spawned deterministically from the
forest seed and the tree index, so training is reproducible.  Trees are fit
one after another, and so are the cells of the experiment grid.
Prediction averages the leaf distributions over all trees and takes the
argmax (lowest index on ties).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import CriterionSpec
from .tree import (Tree, TreeParams, _json, fit, predict, predict_batch, tree_from_dict,
                   tree_stats, tree_to_dict)


@dataclass(frozen=True)
class ForestParams:
    tree_params: TreeParams
    n_trees: int = 100
    bootstrap: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class Forest:
    params: ForestParams
    n_classes: int
    trees: list[Tree] = field(default_factory=list)


def fit_forest(features, labels, params: ForestParams, n_classes: int | None = None) -> Forest:
    """Train ``params.n_trees`` trees; deterministic for a fixed seed.

    ``n_classes`` widens the label space beyond max(labels) + 1, as in ``fit``.
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("features must be a nonempty n x d matrix")
    n, d = X.shape
    k = max(2, int(y.max()) + 1) if n_classes is None else int(n_classes)
    if y.max() >= k:
        raise ValueError("labels out of range for n_classes")
    tp = params.tree_params
    if tp.feature_subsample is None:
        tp = replace(tp, feature_subsample=min(d, math.ceil(math.sqrt(d))))
    seeds = np.random.SeedSequence(params.rng_seed).spawn(params.n_trees)

    def build(i: int) -> Tree:
        rng = np.random.default_rng(seeds[i])
        if params.bootstrap:
            rows = rng.integers(0, n, size=n)
            Xi, yi = X[rows], y[rows]
        else:
            Xi, yi = X, y
        return fit(Xi, yi, tp, dataset_size=n, n_classes=k, rng=rng)

    return Forest(params=params, n_classes=k, trees=[build(i) for i in range(params.n_trees)])


def predict_forest(forest: Forest, x) -> tuple[int, np.ndarray]:
    """Average the trees' leaf distributions for one feature vector.

    The sum runs in the order of :func:`predict_forest_batch`, so the answer
    equals that function's row for ``x`` bit for bit.
    """
    if not forest.trees:
        raise ValueError("cannot predict with an empty forest")
    x = np.asarray(x, dtype=np.float64)
    acc = np.zeros(forest.n_classes, dtype=np.float64)
    for tree in forest.trees:
        acc += predict(tree, x)[1]
    acc /= len(forest.trees)
    return int(np.argmax(acc)), acc


def predict_forest_batch(forest: Forest, features) -> tuple[np.ndarray, np.ndarray]:
    if not forest.trees:
        raise ValueError("cannot predict with an empty forest")
    X = np.asarray(features, dtype=np.float64)
    acc = np.zeros((X.shape[0], forest.n_classes), dtype=np.float64)
    for tree in forest.trees:
        acc += predict_batch(tree, X)[1]
    acc /= len(forest.trees)
    return np.argmax(acc, axis=1), acc


def forest_stats(forest: Forest) -> dict:
    """Totals across trees plus the deepest tree's depth."""
    stats = [tree_stats(t) for t in forest.trees]
    return {
        "node_count": sum(s["node_count"] for s in stats),
        "leaf_count": sum(s["leaf_count"] for s in stats),
        "max_depth": max(s["max_depth"] for s in stats),
        "n_trees": len(forest.trees),
    }


def forest_to_dict(forest: Forest) -> dict:
    tp = forest.params.tree_params
    return {
        "params": {
            "n_trees": forest.params.n_trees,
            "bootstrap": forest.params.bootstrap,
            "rng_seed": forest.params.rng_seed,
            "criterion": tp.criterion.to_dict(),
            "max_depth": tp.max_depth,
            "min_samples_leaf": tp.min_samples_leaf,
            "feature_subsample": tp.feature_subsample,
        },
        "K": forest.n_classes,
        "trees": [tree_to_dict(t) for t in forest.trees],
    }


def forest_from_dict(data: dict) -> Forest:
    """Build a forest from its JSON form; a malformed model raises ``ValueError``."""
    _json(data, dict, "forest model")
    try:
        p = _json(data["params"], dict, "forest params")
        tp = TreeParams(
            criterion=CriterionSpec.from_dict(_json(p["criterion"], dict, "criterion")),
            max_depth=p.get("max_depth"),
            min_samples_leaf=p.get("min_samples_leaf", 1),
            feature_subsample=p.get("feature_subsample"),
        )
        params = ForestParams(
            tree_params=tp,
            n_trees=p["n_trees"],
            bootstrap=p["bootstrap"],
            rng_seed=p.get("rng_seed", 0),
        )
        k, entries = _json(data["K"], int, "K"), _json(data["trees"], list, "trees")
    except KeyError as exc:
        raise ValueError(f"forest model is missing key {exc}") from None
    trees = []
    for i, entry in enumerate(entries):
        try:
            tree = tree_from_dict(entry)
            if tree.n_classes != k:
                raise ValueError(f"K is {tree.n_classes}, the forest's K is {k}")
        except ValueError as exc:
            raise ValueError(f"tree {i}: {exc}") from None
        trees.append(tree)
    return Forest(params=params, n_classes=k, trees=trees)


def save_forest(forest: Forest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(forest_to_dict(forest), fh)
        fh.write("\n")


def load_forest(path) -> Forest:
    with open(path, "r", encoding="utf-8") as fh:
        return forest_from_dict(json.load(fh))
