"""Random forests over the tree learner.

Each tree trains on a bootstrap resample (optional) with per-split feature
subsampling, defaulting to ceil(sqrt(d)) features per split and 100 trees.
Every tree draws from its own generator, spawned deterministically from the
forest seed and the tree index, so training is reproducible: first its
bootstrap rows, then its features split by split in preorder.  A forest
bins its data once and grows all its trees in lockstep (see
:mod:`robust_trees.tree`), which gives every tree the bits of a fit on its
own resample.
Prediction averages the leaf distributions over all trees and takes the
argmax (lowest index on ties).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .criteria import CriterionSpec
from .errors import _check_type, _json, _read
from .tree import (Tree, TreeParams, _class_count, _fit_inputs, _fit_trees, _leaf_of, _row,
                   _too_few_columns, predict_batch, tree_from_dict, tree_stats, tree_to_dict)


@dataclass(frozen=True)
class ForestParams:
    """A forest's trees draw only from ``rng_seed``, never ``tree_params.rng_seed``."""

    tree_params: TreeParams
    n_trees: int = 100
    bootstrap: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "rng_seed"):
            _check_type(name, getattr(self, name), Integral)
        _check_type("bootstrap", self.bootstrap, bool)
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class Forest:
    """Fitted trees; ``min_columns``, the widest of their ``min_columns``, is
    derived on construction, as a :class:`Tree` derives its own."""

    params: ForestParams
    n_classes: int
    trees: list[Tree] = field(default_factory=list)
    min_columns: int = field(init=False, repr=False)

    def __post_init__(self):
        self.min_columns = max((tree.min_columns for tree in self.trees), default=0)


def fit_forest(features, labels, params: ForestParams, n_classes: int | None = None) -> Forest:
    """Train ``params.n_trees`` trees; deterministic for a fixed seed.

    ``n_classes`` widens the label space beyond max(labels) + 1, as in ``fit``.
    """
    X, y, k = _fit_inputs(features, labels, n_classes)
    n, d = X.shape
    tp = params.tree_params
    if tp.feature_subsample is None:
        tp = replace(tp, feature_subsample=min(d, math.ceil(math.sqrt(d))))
    rngs = [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(params.rng_seed).spawn(params.n_trees)]
    # a tree's generator draws its bootstrap first, then its features split by split
    roots = [rng.integers(0, n, size=n) if params.bootstrap else np.arange(n) for rng in rngs]
    return Forest(params=params, n_classes=k, trees=_fit_trees(X, y, k, tp, roots, rngs))


def predict_forest(forest: Forest, x) -> tuple[int, np.ndarray]:
    """Average the trees' leaf distributions for one 1-D feature vector.

    Each tree routes the row by the scalar walk of :func:`tree.predict`, and
    the K sums run on Python floats in tree order, then divide by the tree
    count: the IEEE operations of :func:`predict_forest_batch` in its order,
    so the answer equals that function's row for ``x`` bit for bit, the
    first maximum (lowest index) winning a tie as ``np.argmax`` does.
    """
    trees = forest.trees
    if not trees:
        raise ValueError("cannot predict with an empty forest")
    row = _row(x, forest.min_columns)
    acc = [0.0] * forest.n_classes
    for tree in trees:
        for c, p in enumerate(tree.distribution[_leaf_of(tree._walk, row)].tolist()):
            acc[c] += p
    acc = [a / len(trees) for a in acc]
    return acc.index(max(acc)), np.array(acc)


def predict_forest_batch(forest: Forest, features) -> tuple[np.ndarray, np.ndarray]:
    if not forest.trees:
        raise ValueError("cannot predict with an empty forest")
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < forest.min_columns:
        raise _too_few_columns(forest.min_columns, X.shape)
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


# the keys of a forest model and of its params, in the order forest_to_dict
# writes them; a param is a field of ForestParams if it has one, else of TreeParams
_FOREST_KEYS = ("params", "K", "trees")
_PARAMS_KEYS = ("n_trees", "bootstrap", "rng_seed", "criterion", "max_depth",
                "min_samples_leaf", "feature_subsample")
_OWN_PARAMS = ForestParams.__dataclass_fields__


def forest_to_dict(forest: Forest) -> dict:
    fp = forest.params
    params = {key: getattr(fp if key in _OWN_PARAMS else fp.tree_params, key)
              for key in _PARAMS_KEYS}
    params["criterion"] = params["criterion"].to_dict()
    return {"params": params, "K": forest.n_classes,
            "trees": [tree_to_dict(t) for t in forest.trees]}


def forest_from_dict(data: dict) -> Forest:
    """Build a forest from its JSON form; a malformed model, an unknown key,
    or params that disagree with the trees (their number or criterion)
    raise ``ValueError``.  An optional param left out takes the default of
    :class:`ForestParams` or :class:`TreeParams`."""
    model = _read("forest model", data, _FOREST_KEYS, _FOREST_KEYS)
    p = _read("forest params", model["params"], _PARAMS_KEYS, ("n_trees", "bootstrap", "criterion"))
    p["criterion"] = CriterionSpec.from_dict(p["criterion"])
    own = {name: p.pop(name) for name in list(p) if name in _OWN_PARAMS}
    params = ForestParams(TreeParams(**p), **own)
    k, entries = _class_count(_json(model["K"], int, "K")), _json(model["trees"], list, "trees")
    if len(entries) != params.n_trees:
        raise ValueError(f"forest params give n_trees {params.n_trees}, the model has"
                         f" {len(entries)} trees")
    trees = []
    for i, entry in enumerate(entries):
        try:
            tree = tree_from_dict(entry)
            if tree.n_classes != k:
                raise ValueError(f"K is {tree.n_classes}, the forest's K is {k}")
            if tree.criterion != params.tree_params.criterion:
                raise ValueError(f"criterion is {tree.criterion.label()}, the forest's is"
                                 f" {params.tree_params.criterion.label()}")
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
