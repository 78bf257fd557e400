"""Greedy recursive-partition tree learner.

Split search is exhaustive over (feature, midpoint-threshold) candidates at
real boundaries between distinct feature values.  Every candidate is scored
by :func:`robust_trees.criteria.split_scores`, the one split-score formula:
risk reduction, or the twoing score for the twoing criterion.  A node stops
growing when it is pure, the depth or leaf-size limits bind, or the best
score does not exceed the criterion's halting slack: exactly zero for
conservative criteria, whose scores come from integer class counts, and
1e-12 against float noise otherwise.

Rows with a feature value equal to a split threshold route left.

A fitted :class:`Tree` is five parallel arrays over its nodes: ``feature``
(-1 at leaves), ``threshold``, ``left`` and ``right`` (-1 at leaves) and
``counts`` (the training class counts at leaves, zero rows at splits).
Nodes are numbered in depth-first preorder: the root is 0, a split's left
subtree comes before its right one, and every child is numbered after its
parent.  That last invariant, which ``tree_from_dict`` checks, bounds every
walk from the root; batch prediction moves all rows down one depth per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .criteria import ClassHistogram, CriterionSpec, split_scores


@dataclass(frozen=True)
class SplitRule:
    feature: int
    threshold: float


@dataclass(frozen=True)
class TreeParams:
    criterion: CriterionSpec
    max_depth: int | None = None
    min_samples_leaf: int = 1
    feature_subsample: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be positive when set")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.feature_subsample is not None and self.feature_subsample < 1:
            raise ValueError("feature_subsample must be >= 1 when set")


@dataclass(eq=False)
class Tree:
    """A fitted tree as parallel arrays over its nodes, in depth-first preorder.

    ``distribution``, ``predicted_class``, ``min_columns`` and the one-row
    walk are derived from the arrays on construction and never serialized.
    """

    criterion: CriterionSpec
    n_classes: int
    feature: np.ndarray  # int64, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64, -1 at leaves
    right: np.ndarray  # int64, -1 at leaves
    counts: np.ndarray  # nodes x K int64: training counts at leaves, zeros at splits
    distribution: np.ndarray = field(init=False, repr=False)
    predicted_class: np.ndarray = field(init=False, repr=False)
    min_columns: int = field(init=False, repr=False)
    _walk: list = field(init=False, repr=False)

    def __post_init__(self):
        self.feature, self.left, self.right, self.counts = (
            np.asarray(a, dtype=np.int64)
            for a in (self.feature, self.left, self.right, self.counts))
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        leaf = self.feature < 0
        self.distribution = np.zeros(self.counts.shape)
        self.distribution[leaf] = self.counts[leaf] / self.counts[leaf].sum(axis=1, keepdims=True)
        self.predicted_class = self.distribution.argmax(axis=1)
        self.min_columns = int(self.feature.max()) + 1
        self._walk = list(zip(self.feature.tolist(), self.threshold.tolist(),
                              self.left.tolist(), self.right.tolist()))


def _best_split(
    spec: CriterionSpec,
    Xn: np.ndarray,
    yn: np.ndarray,
    parent_counts: np.ndarray,
    dataset_size: int,
    min_samples_leaf: int,
):
    """Best (score, local feature index, threshold) at a node, or None.

    One column-wise sort of the node's submatrix marks the valid boundaries
    (between distinct values, leaving ``min_samples_leaf`` rows per side);
    one cumulative class-count sweep, gathered at those boundaries only,
    feeds one :func:`split_scores` call.  Candidates are listed feature-major
    with ascending thresholds, so the first argmax takes the lowest feature
    index, then the lowest threshold.
    """
    n, d = Xn.shape
    k = parent_counts.shape[0]
    order = np.argsort(Xn.T, axis=1)  # one row per feature
    vs = np.take_along_axis(Xn.T, order, axis=1)
    # valid[f, i]: a threshold between sorted rows i and i + 1 of feature f
    valid = np.zeros((d, n), dtype=bool)
    np.not_equal(vs[:, 1:], vs[:, :-1], out=valid[:, :-1])
    if min_samples_leaf > 1:
        sizes = np.arange(1, n + 1)
        valid &= (sizes >= min_samples_leaf) & (n - sizes >= min_samples_leaf)
    at = np.flatnonzero(valid)
    if at.size == 0:
        return None
    onehot = yn[order][:, :, None] == np.arange(k)
    left = np.take(onehot.cumsum(axis=1).reshape(d * n, k), at, axis=0)
    scores = split_scores(spec, parent_counts, left, dataset_size)
    best = int(np.argmax(scores))
    f, i = divmod(int(at[best]), n)
    return float(scores[best]), f, (vs[f, i] + vs[f, i + 1]) / 2.0


def fit(
    features,
    labels,
    params: TreeParams,
    dataset_size: int | None = None,
    n_classes: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a tree on (features, labels).

    ``dataset_size`` anchors the impurity weights W_S = |S| / dataset_size
    and defaults to the number of rows.  ``n_classes`` widens the label space
    beyond max(labels) + 1 (needed for resampled data); ``rng`` overrides the
    generator seeded by ``params.rng_seed`` and is consumed only when
    per-split feature subsampling is active.
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("features must be a nonempty n x d matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must be a vector with one entry per row")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if y.min() < 0:
        raise ValueError("labels must be nonnegative class indices")
    k = max(2, int(y.max()) + 1) if n_classes is None else int(n_classes)
    if y.max() >= k:
        raise ValueError("labels out of range for n_classes")
    n, d = X.shape
    if dataset_size is None:
        dataset_size = n
    spec = params.criterion
    subsample = params.feature_subsample
    if subsample is not None and subsample > d:
        raise ValueError("feature_subsample cannot exceed the feature count")
    if rng is None:
        rng = np.random.default_rng(params.rng_seed)

    # one entry per node, appended in preorder: [feature, threshold, left, right, counts]
    nodes: list[list] = []
    no_counts = np.zeros(k, dtype=np.int64)
    # stack entries: (row indices, depth, parent node id, is_right_child)
    stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        counts = np.bincount(y[idx], minlength=k)
        split: tuple[int, float] | None = None

        splittable = (
            np.count_nonzero(counts) > 1
            and (params.max_depth is None or depth < params.max_depth)
            and idx.shape[0] >= 2 * params.min_samples_leaf
        )
        if splittable:
            if subsample is not None and subsample < d:
                feats = np.sort(rng.choice(d, size=subsample, replace=False))
                Xn = X[idx[:, None], feats[None, :]]
            else:
                feats = None
                Xn = X[idx]
            found = _best_split(spec, Xn, y[idx], counts, dataset_size,
                                params.min_samples_leaf)
            if found is not None and found[0] > spec.halting_slack:
                local = found[1]
                split = (int(feats[local]) if feats is not None else local, float(found[2]))

        nid = len(nodes)
        if parent >= 0:
            nodes[parent][3 if is_right else 2] = nid
        if split is None:
            nodes.append([-1, 0.0, -1, -1, counts])
        else:
            nodes.append([*split, -1, -1, no_counts])
            mask = X[idx, split[0]] <= split[1]
            # right pushed first so the left child is grown (and numbered) first
            stack.append((idx[~mask], depth + 1, nid, True))
            stack.append((idx[mask], depth + 1, nid, False))

    return Tree(spec, k, *zip(*nodes))


def predict(tree: Tree, x) -> tuple[int, np.ndarray]:
    """Route one feature vector to a leaf; returns (class, distribution)."""
    x = np.asarray(x, dtype=np.float64)
    walk = tree._walk
    nid = 0
    feature, threshold, left, right = walk[0]
    while feature >= 0:
        nid = left if x[feature] <= threshold else right
        feature, threshold, left, right = walk[nid]
    return int(tree.predicted_class[nid]), tree.distribution[nid]


def predict_batch(tree: Tree, features) -> tuple[np.ndarray, np.ndarray]:
    """Route an n x d matrix one depth per step; returns (classes, distributions)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < tree.min_columns:
        raise ValueError(f"the model splits on feature {tree.min_columns - 1}, so it needs"
                         f" an n x d input with d >= {tree.min_columns}; got shape {X.shape}")
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.flatnonzero(tree.feature[node] >= 0)
    while rows.size:
        at = node[rows]
        goes_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        at = np.where(goes_left, tree.left[at], tree.right[at])
        node[rows] = at
        rows = rows[tree.feature[at] >= 0]
    return tree.predicted_class[node], tree.distribution[node]


def tree_stats(tree: Tree) -> dict:
    """Structural counts: {node_count, leaf_count, max_depth}."""
    splits = tree.feature >= 0
    level, depth = np.zeros(1, dtype=np.int64), 0
    while (level := level[splits[level]]).size:  # the splits of one depth
        level = np.concatenate([tree.left[level], tree.right[level]])
        depth += 1
    return {"node_count": splits.size, "leaf_count": int(np.count_nonzero(~splits)),
            "max_depth": depth}


def tree_to_dict(tree: Tree) -> dict:
    nodes = []
    for (feature, threshold, left, right), counts in zip(tree._walk, tree.counts.tolist()):
        if feature < 0:
            nodes.append({"kind": "leaf", "counts": counts})
        else:
            nodes.append({"kind": "split", "feature": feature, "threshold": threshold,
                          "left": left, "right": right})
    return {"criterion": tree.criterion.to_dict(), "K": tree.n_classes, "nodes": nodes}


def tree_from_dict(data: dict) -> Tree:
    """Build a tree from its JSON form, checking that it is a well-formed model.

    Raises ``ValueError`` naming the first offending node: an unknown kind or
    a missing key, a split whose feature is negative, whose threshold is not
    finite or whose children are not numbered after it and inside the tree,
    or leaf counts that are not K nonnegative entries with a positive total.
    """
    try:
        spec = CriterionSpec.from_dict(data["criterion"])
        k = int(data["K"])
        entries = data["nodes"]
    except KeyError as exc:
        raise ValueError(f"tree model is missing key {exc}") from None
    if not entries:
        raise ValueError("tree model has no nodes")
    no_counts = [0] * k
    rows = []
    for nid, entry in enumerate(entries):
        try:
            kind = entry["kind"]
            if kind == "split":
                rows.append((entry["feature"], entry["threshold"], entry["left"],
                             entry["right"], no_counts, True))
            elif kind == "leaf":
                counts = entry["counts"]
                if len(counts) != k:
                    raise ValueError(f"node {nid}: counts has {len(counts)} entries, K is {k}")
                rows.append((-1, 0.0, -1, -1, counts, False))
            else:
                raise ValueError(f"node {nid}: kind must be 'split' or 'leaf', got {kind!r}")
        except KeyError as exc:
            raise ValueError(f"node {nid}: missing key {exc}") from None
    feature, threshold, left, right, counts, split = zip(*rows)
    feature, left, right, counts = (np.array(a, dtype=np.int64)
                                    for a in (feature, left, right, counts))
    threshold, split = np.array(threshold, dtype=np.float64), np.array(split)
    n, ids = len(rows), np.arange(len(rows))
    bad = np.flatnonzero(split & ((feature < 0) | ~np.isfinite(threshold)
                                  | (np.minimum(left, right) <= ids)
                                  | (np.maximum(left, right) >= n)))
    if bad.size:
        raise ValueError(f"node {bad[0]}: a split needs feature >= 0, a finite threshold"
                         f" and both children numbered after it and below {n}")
    bad = np.flatnonzero(~split & ((counts < 0).any(axis=1) | (counts.sum(axis=1) <= 0)))
    if bad.size:
        raise ValueError(f"node {bad[0]}: leaf counts must be nonnegative with a positive total")
    return Tree(spec, k, feature, threshold, left, right, counts)


def save_tree(tree: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh)
        fh.write("\n")


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def root_histogram(tree: Tree) -> ClassHistogram:
    """Class histogram of the training rows, reassembled from the leaves."""
    return ClassHistogram(tree.counts.sum(axis=0))
