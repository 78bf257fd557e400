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


@dataclass
class TreeNode:
    """Either an internal split (feature >= 0) or a leaf (feature == -1)."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    counts: np.ndarray | None = None
    distribution: np.ndarray | None = None
    predicted_class: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class Tree:
    criterion: CriterionSpec
    n_classes: int
    nodes: list[TreeNode] = field(default_factory=list)


def _leaf(counts: np.ndarray) -> TreeNode:
    dist = counts / counts.sum()
    return TreeNode(counts=counts, distribution=dist, predicted_class=int(np.argmax(dist)))


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

    tree = Tree(criterion=spec, n_classes=k, nodes=[])
    # stack entries: (row indices, depth, parent node id, is_right_child)
    stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        counts = np.bincount(y[idx], minlength=k)
        node: TreeNode | None = None

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
                feature = int(feats[local]) if feats is not None else local
                node = TreeNode(feature=feature, threshold=found[2])

        nid = len(tree.nodes)
        if node is None:
            tree.nodes.append(_leaf(counts))
        else:
            tree.nodes.append(node)
            mask = X[idx, node.feature] <= node.threshold
            # right pushed first so the left child is grown (and numbered) first
            stack.append((idx[~mask], depth + 1, nid, True))
            stack.append((idx[mask], depth + 1, nid, False))
        if parent >= 0:
            if is_right:
                tree.nodes[parent].right = nid
            else:
                tree.nodes[parent].left = nid
    return tree


def predict(tree: Tree, x) -> tuple[int, np.ndarray]:
    """Route one feature vector to a leaf; returns (class, distribution)."""
    x = np.asarray(x, dtype=np.float64)
    node = tree.nodes[0]
    while not node.is_leaf:
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node.predicted_class, node.distribution


def predict_batch(tree: Tree, features) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized routing of an n x d matrix; returns (classes, distributions)."""
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    classes = np.empty(n, dtype=np.int64)
    dists = np.empty((n, tree.n_classes), dtype=np.float64)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(n))]
    while stack:
        nid, rows = stack.pop()
        if rows.size == 0:
            continue
        node = tree.nodes[nid]
        if node.is_leaf:
            classes[rows] = node.predicted_class
            dists[rows] = node.distribution
        else:
            mask = X[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
    return classes, dists


def tree_stats(tree: Tree) -> dict:
    """Structural counts: {node_count, leaf_count, max_depth}."""
    depths = np.zeros(len(tree.nodes), dtype=np.int64)
    leaves = 0
    max_depth = 0
    for nid, node in enumerate(tree.nodes):
        if node.is_leaf:
            leaves += 1
            max_depth = max(max_depth, int(depths[nid]))
        else:
            depths[node.left] = depths[nid] + 1
            depths[node.right] = depths[nid] + 1
    return {"node_count": len(tree.nodes), "leaf_count": leaves, "max_depth": max_depth}


def tree_to_dict(tree: Tree) -> dict:
    nodes = []
    for node in tree.nodes:
        if node.is_leaf:
            nodes.append({"kind": "leaf", "counts": [int(c) for c in node.counts]})
        else:
            nodes.append(
                {
                    "kind": "split",
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": node.left,
                    "right": node.right,
                }
            )
    return {"criterion": tree.criterion.to_dict(), "K": tree.n_classes, "nodes": nodes}


def tree_from_dict(data: dict) -> Tree:
    spec = CriterionSpec.from_dict(data["criterion"])
    tree = Tree(criterion=spec, n_classes=int(data["K"]), nodes=[])
    for entry in data["nodes"]:
        if entry["kind"] == "leaf":
            tree.nodes.append(_leaf(np.asarray(entry["counts"], dtype=np.int64)))
        else:
            tree.nodes.append(
                TreeNode(
                    feature=int(entry["feature"]),
                    threshold=float(entry["threshold"]),
                    left=int(entry["left"]),
                    right=int(entry["right"]),
                )
            )
    return tree


def save_tree(tree: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh)
        fh.write("\n")


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def root_histogram(tree: Tree) -> ClassHistogram:
    """Class histogram of the training rows, reassembled from the leaves."""
    total = np.zeros(tree.n_classes, dtype=np.int64)
    for node in tree.nodes:
        if node.is_leaf:
            total += node.counts
    return ClassHistogram(total)
