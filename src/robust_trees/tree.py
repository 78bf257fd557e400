"""Greedy recursive-partition tree learner.

Split search is exhaustive over (feature, midpoint-threshold) candidates at
real boundaries between distinct feature values.  Every candidate is scored
by :func:`robust_trees.criteria.split_scores`, the one split-score formula:
risk reduction, or the twoing score for the twoing criterion.  A node stops
growing when it is pure, the depth or leaf-size limits bind, or the best
score does not exceed the criterion's halting slack: exactly zero for
conservative criteria, whose scores come from integer class counts, and
1e-12 against float noise otherwise.

Each node finds its best split in one of two exact ways, which list the
same candidates in the same order (feature-major, ascending thresholds)
and feed them to one ``split_scores`` call.  The sort search sorts the
node's columns and sweeps class counts over the sorted rows.  The histogram
search counts classes per bin with one ``bincount``, where a fit bins every
column once on its distinct values.  Its candidates are the boundaries
between consecutive bins that are nonempty in the node, which are exactly
the sort's boundaries between distinct values, and its thresholds are the
same midpoints of those values.  So the choice changes speed, never the
tree.  A node counts bins when the candidate features' bins are few against
its (row, feature) cells; a fit builds no bins when no node could, as on
continuous columns.  Both searches lay the candidates' left class counts
out class-major (K rows of candidates) and pass their ``.T`` view to
``split_scores``, so its sums and maxima over the K classes run along the
long candidate axis.

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

from .criteria import CriterionSpec, split_scores


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
    vs = np.take(Xn, order * d + np.arange(d)[:, None])  # Xn[order[f, i], f]
    # valid[f, i]: a threshold between sorted rows i and i + 1 of feature f
    valid = np.zeros((d, n), dtype=bool)
    np.not_equal(vs[:, 1:], vs[:, :-1], out=valid[:, :-1])
    if min_samples_leaf > 1:
        sizes = np.arange(1, n + 1)
        valid &= (sizes >= min_samples_leaf) & (n - sizes >= min_samples_leaf)
    at = np.flatnonzero(valid)
    if at.size == 0:
        return None
    onehot = yn[order] == np.arange(k)[:, None, None]  # class-major: K x d x n
    # 32-bit running counts halve the memory the sweep writes; every count fits
    cum = onehot.cumsum(axis=2, dtype=np.int32 if n < 2**31 else np.int64)
    left = np.take(cum.reshape(k, d * n), at, axis=1)
    scores = split_scores(spec, parent_counts, left.T, dataset_size)
    best = int(np.argmax(scores))
    f, i = divmod(int(at[best]), n)
    return float(scores[best]), f, (vs[f, i] + vs[f, i + 1]) / 2.0


@dataclass(frozen=True)
class _Bins:
    """Every column of a feature matrix binned on its distinct values.

    Bins are numbered feature-major with ascending values: feature f owns
    the bins from ``first[f]`` up to ``first[f + 1]``, ``values`` holds each
    bin's value, and ``codes[r, f]`` is the bin of row r's value of feature f.
    """

    codes: np.ndarray  # n x d int32, or intp for 2**31 bins or more
    values: np.ndarray  # float64, one per bin
    first: np.ndarray  # d + 1 intp offsets; first[d] is the bin count


def _bin_columns(X: np.ndarray, per_node: int | None = None) -> _Bins | None:
    """Bin the columns of X.  With ``per_node`` given, return None instead
    when no node searching that many of the columns can pass the gate of
    :func:`_use_histogram`; the distinct values tell, before any code is
    built.  Columns are handled one at a time, so the scratch memory is a
    few columns, and the codes are 32-bit whenever the bin count allows."""
    n, d = X.shape
    values = [np.unique(col) for col in X.T]
    nbins = np.array([v.size for v in values], dtype=np.intp)
    if per_node is not None and not _use_histogram(
            int(np.sort(nbins)[:per_node].sum()), n, per_node):
        return None
    first = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(nbins, out=first[1:])
    codes = np.empty((n, d), dtype=np.int32 if first[-1] < 2**31 else np.intp)
    for f, (col, v) in enumerate(zip(X.T, values)):
        codes[:, f] = np.searchsorted(v, col)
    codes += first[:-1]
    return _Bins(codes, np.concatenate(values), first)


def _use_histogram(bins: int, rows: int, features: int) -> bool:
    """Whether a node's histogram search beats its sort: the candidate
    features' bins are few against the (row, feature) cells it counts."""
    return 4 * bins <= rows * features


def _best_split_hist(
    spec: CriterionSpec,
    bins: _Bins,
    idx: np.ndarray,
    feats: np.ndarray | None,
    yn: np.ndarray,
    parent_counts: np.ndarray,
    dataset_size: int,
    min_samples_leaf: int,
):
    """:func:`_best_split` from per-bin class counts, with identical results.

    One ``bincount`` over ``bin * K + label`` of the node's rows ``idx`` and
    candidate features ``feats`` (all when None) counts the classes per bin.
    The candidates are the boundaries between consecutive nonempty bins of a
    feature, which are the sort path's real boundaries; the left counts are
    a cumulative sum over the nonempty bins less the parent counts of the
    features before.  Order, thresholds and scores equal the sort path's.
    """
    k = parent_counts.shape[0]
    if feats is None:
        codes, first = bins.codes[idx], bins.first
    else:  # renumber the candidate features' bins from 0
        first = np.zeros(feats.size + 1, dtype=np.intp)
        np.cumsum(bins.first[feats + 1] - bins.first[feats], out=first[1:])
        codes = bins.codes[idx[:, None], feats] - (bins.first[feats] - first[:-1])
    key = np.multiply(codes, k, dtype=np.intp)  # bin * K + label, in 64 bits
    key += yn[:, None]
    hist = np.bincount(key.ravel(), minlength=int(first[-1]) * k).reshape(-1, k)
    full = np.flatnonzero(hist.any(axis=1))  # nonempty bins, feature-major
    owner = np.searchsorted(first, full, side="right") - 1
    left = hist[full].cumsum(axis=0) - owner[:, None] * parent_counts
    valid = owner[:-1] == owner[1:]  # a boundary after nonempty bin i
    if min_samples_leaf > 1:
        sizes = left[:-1].sum(axis=1)
        valid &= (sizes >= min_samples_leaf) & (idx.size - sizes >= min_samples_leaf)
    at = np.flatnonzero(valid)
    if at.size == 0:
        return None
    scores = split_scores(spec, parent_counts, np.ascontiguousarray(left[at].T).T,
                          dataset_size)
    best = int(np.argmax(scores))
    i = int(at[best])
    f = int(owner[i])
    shift = bins.first[f if feats is None else feats[f]] - first[f]
    return float(scores[best]), f, (bins.values[full[i] + shift]
                                    + bins.values[full[i + 1] + shift]) / 2.0


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
    bins = _bin_columns(X, subsample or d)

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
            feats = None
            if subsample is not None and subsample < d:
                feats = np.sort(rng.choice(d, size=subsample, replace=False))
            width = d if feats is None else feats.size
            if bins is not None and _use_histogram(
                    int(bins.first[-1] if feats is None
                        else (bins.first[feats + 1] - bins.first[feats]).sum()),
                    idx.size, width):
                found = _best_split_hist(spec, bins, idx, feats, y[idx], counts,
                                         dataset_size, params.min_samples_leaf)
            else:
                Xn = X[idx] if feats is None else X[idx[:, None], feats[None, :]]
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


def _too_few_columns(tree: Tree, shape: tuple) -> ValueError:
    return ValueError(f"the model splits on feature {tree.min_columns - 1}, so it needs"
                      f" an n x d input with d >= {tree.min_columns}; got shape {shape}")


def predict(tree: Tree, x) -> tuple[int, np.ndarray]:
    """Route one feature vector to a leaf; returns (class, distribution)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < tree.min_columns:
        raise _too_few_columns(tree, x.shape)
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
        raise _too_few_columns(tree, X.shape)
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


_JSON_KINDS = {dict: "object", list: "array", int: "integer"}


def _wrong_json(value, kind: type, what: str) -> ValueError:
    return ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {type(value).__name__}")


def _json(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (a key of ``_JSON_KINDS``),
    else ``ValueError`` naming ``what``."""
    if not isinstance(value, kind):
        raise _wrong_json(value, kind, what)
    return value


def tree_from_dict(data: dict) -> Tree:
    """Build a tree from its JSON form, checking that it is a well-formed model.

    Raises ``ValueError`` naming the first offending part: a value of the
    wrong JSON type, an unknown kind or a missing key, a split whose feature
    is negative, whose threshold is not finite or whose children are not
    numbered after it and inside the tree, or leaf counts that are not K
    nonnegative entries with a positive total.
    """
    _json(data, dict, "tree model")
    try:
        spec = CriterionSpec.from_dict(_json(data["criterion"], dict, "criterion"))
        k = _json(data["K"], int, "K")
        entries = _json(data["nodes"], list, "nodes")
    except KeyError as exc:
        raise ValueError(f"tree model is missing key {exc}") from None
    if not entries:
        raise ValueError("tree model has no nodes")
    no_counts = [0] * k
    rows = []
    for nid, entry in enumerate(entries):
        if not isinstance(entry, dict):  # inline: the message is built only on failure
            raise _wrong_json(entry, dict, f"node {nid}")
        try:
            kind = entry["kind"]
            if kind == "split":
                rows.append((entry["feature"], entry["threshold"], entry["left"],
                             entry["right"], no_counts, True))
            elif kind == "leaf":
                counts = entry["counts"]
                if not isinstance(counts, list):
                    raise _wrong_json(counts, list, f"node {nid}: counts")
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

