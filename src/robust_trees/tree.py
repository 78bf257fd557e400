"""Greedy recursive-partition tree learner.

Split search is exhaustive over (feature, midpoint-threshold) candidates at
real boundaries between distinct feature values.  Every candidate is scored
by :func:`robust_trees.criteria.split_scores`, the one split-score formula:
risk reduction, or the twoing score for the twoing criterion.  A node stops
growing when it is pure, the depth or leaf-size limits bind, or the best
score does not exceed the criterion's halting slack: exactly zero for
conservative criteria, whose scores come from integer class counts, and
1e-12 against float noise otherwise.

A fit bins every column once on its distinct values and folds each row's
label into its bin codes, as ``bin * K + label`` keys; every node's search
reads its rows' keys.  Its candidates are the boundaries between
consecutive bins that are nonempty in the node, which are the boundaries
between the node's distinct values, and the thresholds are the midpoints
of those values.  Only the counting of a node's keys takes one of two
exact ways: one ``bincount`` when the candidate features' bins are few
against the node's (row, feature) cells, as on one-hot columns, and
otherwise a sort of each feature's keys with a running class-count sweep
over the sorted rows, as on continuous columns.  Both list the same
candidates in the same order (feature-major, ascending thresholds) and lay
their left class counts out class-major (K rows of candidates) for one
``split_scores`` call, whose sums and maxima over the K classes then run
along the long candidate axis.  So the way of counting changes speed,
never the tree.

One function, :func:`_best_splits`, searches every node, alone or together
with others; a node's answer does not depend on the nodes searched with it,
and a search of one node skips the bookkeeping that tells nodes apart.
Nodes of ``_LEVEL_ROWS`` (128) rows or more grow depth-first, each searched
alone; in a fit that draws no features, a split of such a node counted with
``bincount`` counts only its smaller child and gives the larger one the
parent's counts less the smaller's (histogram subtraction, as in LightGBM):
the same integers, so the same tree.  A smaller node waits until no larger
one is left; then all waiting subtrees grow together, one level per step:
one ``bincount`` counts the classes of every node of the level, one search
covers all of them that can split, its way of counting picked once for the
level, and one stable argsort moves their rows to the children.  A fit that
draws features per split, as a forest's trees do, grows every node
depth-first, so that its draws keep their preorder.  A forest's trees grow
in lockstep over one binning of the forest's data, each on row ids into it
(with a bootstrap's repeats): every tree pops nodes up to its next one
under ``_LEVEL_ROWS`` rows that can split, and one search covers those
nodes of all trees, each (node, drawn feature) pair counted as a feature of
its own.  Binning the whole data instead of a resample changes no answer,
as the search skips the bins that are empty in a node.

A threshold is the midpoint of the two values around its boundary, or the
lower value when the midpoint is not in [lower, upper) (it rounds onto the
upper value between adjacent floats, and overflows between huge ones), so
both children are nonempty.  Rows equal to a threshold route left.

A fitted :class:`Tree` is five parallel arrays over its nodes: ``feature``
(-1 at leaves), ``threshold``, ``left`` and ``right`` (-1 at leaves) and
``counts`` (the training class counts at leaves, zero rows at splits).
Nodes are renumbered at the end of a fit to depth-first preorder, the order
a purely depth-first grower makes them in: the root is 0, a split's left
subtree comes before its right one, and every child is numbered after its
parent.  That last invariant, which ``tree_from_dict`` checks, bounds every
walk from the root; batch prediction moves all rows down one depth per step.
A single row walks instead, one node per step (:func:`_leaf_of`): it reads
the row's values as Python floats from a ``memoryview`` and the nodes from
the tree's ``_walk`` tuples, and compares them by the same ``<=``, so it
reaches the leaf its batch row reaches.  A forest adds its trees' leaf rows
for one row on Python floats in tree order, as the batch adds them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .criteria import CriterionSpec, split_scores
from .errors import _class_count, _json, _labelled, _read, _whole, _wrong_json


@dataclass(frozen=True)
class TreeParams:
    criterion: CriterionSpec
    max_depth: int | None = None
    min_samples_leaf: int = 1
    feature_subsample: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("max_depth", "feature_subsample"):
            _whole(name, getattr(self, name), 1, optional=True)
        _whole("min_samples_leaf", self.min_samples_leaf, 1)
        _whole("rng_seed", self.rng_seed, 0)


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


@dataclass(frozen=True)
class _Bins:
    """Every column of a feature matrix binned on its distinct values, with
    each row's label folded in.

    Bins are numbered feature-major with ascending values: feature f owns
    the bins from ``first[f]`` up to ``first[f + 1]`` and ``values`` holds
    each bin's value.  ``keys[r, f]`` is ``bin * K + label`` for the bin of
    row r's value of feature f and row r's label.
    """

    keys: np.ndarray  # n x d int32, or intp when first[d] * K >= 2**31
    values: np.ndarray  # float64, one per bin
    first: np.ndarray  # d + 1 intp offsets; first[d] is the bin count


def _bin_columns(X: np.ndarray, y: np.ndarray, k: int) -> _Bins:
    """Bin the columns of X and fold in the labels y (< k).  Columns are
    binned one at a time, so the scratch memory is a few columns, and the
    keys are 32-bit whenever the key count allows: sorting 32-bit keys is
    what keeps the sort count fast."""
    n, d = X.shape
    values = [np.unique(col) for col in X.T]
    # each column's bin codes (< n) first, then the keys
    keys = np.empty((n, d), dtype=np.int32 if n < 2**31 else np.intp)
    # one pass over X, comparing each value with its column's lowest, codes
    # every column of one or two values (a pass column by column took 6x as long)
    np.greater(X, [v[0] for v in values], out=keys, casting="unsafe")
    for f, (col, v) in enumerate(zip(X.T, values)):
        # a lookup among a few values is cheap; among many, an argsort is
        # (a skewed low-cardinality column is argsort's slow case)
        if v.size > 2:
            keys[:, f] = (np.searchsorted(v, col) if 4 * v.size <= n
                          else np.unique(col, return_inverse=True)[1])
    first = np.zeros(d + 1, dtype=np.intp)
    np.cumsum([v.size for v in values], out=first[1:])
    if int(first[-1]) * k >= 2**31:
        keys = keys.astype(np.intp)
    # (bin + first) * K + label, each term in the keys' own dtype
    keys *= k
    keys += (first[:-1] * k).astype(keys.dtype)
    keys += y.astype(keys.dtype)[:, None]
    return _Bins(keys, np.concatenate(values), first)


def _use_histogram(bins: int, rows: int, features: int) -> bool:
    """Whether a search counts its keys with one ``bincount`` rather than a
    sort: the bins of its candidate features (over all its nodes) are few
    against the (row, feature) cells it counts."""
    return 4 * bins <= rows * features


def _histogram(key: np.ndarray, nbins: int, k: int) -> np.ndarray:
    """The class counts of a search's ``bin * K + label`` keys, one row of K
    (int64) per search bin: the one way a node's keys are counted."""
    return np.bincount(key.ravel(), minlength=nbins * k).reshape(-1, k)


def _best_splits(
    spec: CriterionSpec,
    bins: _Bins,
    rows: np.ndarray,
    sizes: np.ndarray,
    parent_counts: np.ndarray,
    dataset_size: int,
    min_samples_leaf: int,
    feats: np.ndarray | None = None,
    hist: np.ndarray | None = None,
):
    """Best (scores, features, thresholds) of S nodes, searched together; a
    node without a candidate scores -inf, with feature -1.

    ``rows`` lists the nodes' rows node after node, ``sizes`` how many each
    has and ``parent_counts`` (S x K) their class counts.  ``feats`` (S x f,
    each row sorted) gives each node its candidate features, every feature
    when None.  A node's candidates leave ``min_samples_leaf`` rows per side
    and are listed feature-major with ascending thresholds; the first
    maximum wins, at the lowest feature, then the lowest threshold, whatever
    nodes are searched with it.  Every (node, candidate feature) pair counts
    as a feature of its own, with its bins numbered after those of the pairs
    before it, so :func:`_use_histogram` picks how to count from the bins of
    the candidate features over all S nodes.  ``hist``, given for one node
    searched on every feature, is the :func:`_histogram` of its keys: the
    search then reads and counts no key.
    """
    s, k = parent_counts.shape
    # Only a search of several nodes does the bookkeeping that tells nodes apart
    # (each ``if many`` below): run for one node too, it made the one-node
    # searches of the benchmark workloads take 1.4-1.9x as long.
    many = s > 1
    seg = np.repeat(np.arange(s), sizes) if many else 0  # each row's node, 0 broadcasts
    # fit bin b of pair (node j, candidate column c) is search bin b + shift[j, c],
    # and the pair's width[j * d + c] search bins follow those of the pairs before it
    if feats is None:
        key = bins.keys[rows] if hist is None else None  # a given histogram needs no key
        width = bins.first[1:] - bins.first[:-1]
        nbins = s * int(bins.first[-1])
        if many:  # a node's columns shift alike
            shift = np.arange(s)[:, None] * bins.first[-1]
            width = np.tile(width, s)
    else:
        key = bins.keys[rows[:, None], feats[seg]]
        width = (bins.first[feats + 1] - bins.first[feats]).ravel()
        end = np.cumsum(width)
        nbins = int(end[-1])
        shift = (end - width).reshape(feats.shape) - bins.first[feats]
    r, d = rows.size, width.size // s
    if nbins * k >= 2**31 and key is not None:
        key = key.astype(np.intp)
    if many or feats is not None:
        key += (shift * k).astype(key.dtype)[seg]
    if many:  # the class counts of the nodes before each one, which a running count carries
        before = np.cumsum(parent_counts, axis=0) - parent_counts
    counted = hist is not None or _use_histogram(nbins, r, d)
    if counted:
        hist = _histogram(key, nbins, k) if hist is None else hist
        # nonempty bins, pair-major: adding the K columns, as a sum along the
        # rows of K runs numpy's inner loop once per bin (13x as slow at K = 2)
        total = hist[:, 0].copy()
        for c in range(1, k):
            total += hist[:, c]
        seq = np.flatnonzero(total)
        owner = np.repeat(np.arange(width.size), width)[seq]  # their (node, column) pairs
        at = np.flatnonzero(owner[:-1] == owner[1:])  # a boundary after nonempty bin at
        left = np.take(np.take(hist.T, seq, axis=1).cumsum(axis=1), at, axis=1)
        # before a pair, the running count has passed every column of the
        # earlier nodes and the earlier columns of this one
        if many:
            cand = owner[at] // d
            carried = before[:, None] * d + np.arange(d)[:, None] * parent_counts[:, None]
            left -= np.take(carried.reshape(-1, k).T, owner[at], axis=1)
        else:
            left -= parent_counts.T * owner[at]
    else:
        key = np.ascontiguousarray(key.T)  # one row per column
        key.sort(axis=1)  # by node, then key
        seq = key // k  # the bins of the sorted rows
        # valid[c, i]: a boundary between sorted rows i and i + 1 of one node
        valid = np.zeros((d, r), dtype=bool)
        np.not_equal(seq[:, 1:], seq[:, :-1], out=valid[:, :-1])
        if many:
            valid[:, :-1] &= seg[1:] == seg[:-1]
        at = np.flatnonzero(valid)
        onehot = key - seq * k == np.arange(k)[:, None, None]  # class-major: K x d x r
        # 32-bit running counts halve the memory the sweep writes; every count fits
        cum = onehot.cumsum(axis=2, dtype=np.int32 if r < 2**31 else np.int64)
        left = np.take(cum.reshape(k, d * r), at, axis=1)
        if many:
            cand = seg[at % r]
            left = left - before.T[:, cand]
        seq = seq.ravel()
    if min_samples_leaf > 1:
        n_left = left.sum(axis=0)
        right = (sizes[cand] if many else sizes[0]) - n_left
        keep = (n_left >= min_samples_leaf) & (right >= min_samples_leaf)
        at, left = at[keep], left[:, keep]
        if many:
            cand = cand[keep]
    if at.size == 0:
        return np.full(s, -np.inf), np.full(s, -1), np.zeros(s)
    if many:
        # an empty node has no candidate; a count of 1 keeps its unused terms finite
        parents = np.maximum(parent_counts, sizes[:, None] == 0)
        scores = split_scores(spec, parents, left.T, dataset_size, node=cand)
        best = np.full(s, -np.inf)
        np.maximum.at(best, cand, scores)
        hits = np.flatnonzero(scores == best[cand])
        first_hit = np.full(s, at.size)
        np.minimum.at(first_hit, cand[hits], hits)  # each node's first maximum
        won = np.flatnonzero(first_hit < at.size)
        i = at[first_hit[won]]
    else:
        scores = split_scores(spec, parent_counts[0], left.T, dataset_size)
        hit = np.argmax(scores)
        best, won, i = scores[hit:hit + 1], 0, int(at[hit])
    feature, threshold = np.full(s, -1), np.zeros(s)
    col = owner[i] % d if counted else i // r
    feature[won] = col if feats is None else feats[won, col]
    step = won * bins.first[-1] if feats is None else shift[won, col]  # to the fit's bins
    lo, hi = bins.values[seq[i] - step], bins.values[seq[i + 1] - step]
    if many:
        with np.errstate(over="ignore"):
            mid = (lo + hi) / 2.0
        threshold[won] = np.where((lo <= mid) & (mid < hi), mid, lo)
    else:
        lo, hi = float(lo), float(hi)
        mid = (lo + hi) / 2.0  # Python floats overflow to inf without a warning
        threshold[0] = mid if lo <= mid < hi else lo
    return best, feature, threshold


def _fit_inputs(features, labels, n_classes: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """A fit's checked inputs: finite float64 features, int64 labels and the
    class count K, ``n_classes`` if given, else max(2, max(labels) + 1)."""
    k = None if n_classes is None else _class_count(int(n_classes), "n_classes")
    X, y = _labelled(features, labels, k, "n_classes")
    X = np.ascontiguousarray(X)
    if X.shape[0] == 0:
        raise ValueError("features must be nonempty")
    return X, y, max(2, int(y.max()) + 1) if k is None else k


# Nodes with fewer rows than this are searched together: in a fit that draws no
# features they wait and then grow level by level, and in one that draws, each
# is searched with the next such node of every other tree grown alongside.
_LEVEL_ROWS = 128


def fit(
    features,
    labels,
    params: TreeParams,
    n_classes: int | None = None,
) -> Tree:
    """Grow a tree on (features, labels).

    A node S weighs W_S = |S| / n in the impurities, n being the number of
    rows given.  ``n_classes`` widens the label space beyond max(labels) + 1
    (needed for resampled data).  The generator seeded by ``params.rng_seed``
    is consumed only when per-split feature subsampling is active.
    """
    X, y, k = _fit_inputs(features, labels, n_classes)
    rng = np.random.default_rng(params.rng_seed)
    return _fit_trees(X, y, k, params, [np.arange(X.shape[0])], [rng])[0]


def _fit_trees(X: np.ndarray, y: np.ndarray, k: int, params: TreeParams,
               roots: list[np.ndarray], rngs: list[np.random.Generator]) -> list[Tree]:
    """Grow one tree per root, each on the rows of X its root lists (with
    repeats for a bootstrap resample), in lockstep over one binning of X.

    Each tree grows depth-first from its own stack, and tree t draws its
    features per split from ``rngs[t]``, so its draws keep their preorder.
    A node of ``_LEVEL_ROWS`` rows or more is searched alone as soon as it
    is popped.  In a fit that draws no features a smaller node waits, and
    all waiting nodes grow level by level once the stack is empty.  In one
    that draws, every tree pops up to its next smaller node that can split,
    and one call searches the nodes of all trees together.  Every search,
    of one node or many, is one :func:`_best_splits` call.  Every node
    weighs its rows against n, the rows of X.

    In a fit that draws no features, a lone node that :func:`_use_histogram`
    counts takes its :func:`_histogram` from its stack entry, or counts it.
    When it splits and its larger child will be counted too, only the
    smaller child is counted: the larger child carries the parent's
    histogram less that count, and the smaller carries its count if it will
    be counted.  A carried histogram holds 8 K first[d] bytes, and only a
    node with 4 first[d] <= rows * d carries one, so at most 2 d K bytes per
    row; the nodes waiting on a stack hold disjoint rows of their root, so
    their histograms take at most about 2 n d K bytes (int32 would halve it).
    """
    n, d = X.shape
    spec, msl, max_depth = params.criterion, params.min_samples_leaf, params.max_depth
    subsample = params.feature_subsample
    if subsample is not None and subsample > d:
        raise ValueError("feature_subsample cannot exceed the feature count")
    draw = subsample is not None and subsample < d
    bins = _bin_columns(X, y, k)
    nbins = int(bins.first[-1])
    # each tree's node records in the order they are made, the root first:
    # (parent id, is a right child, feature, threshold, counts)
    made: list[list[tuple]] = [[] for _ in roots]
    deferred: list[list[tuple]] = [[] for _ in roots]
    no_counts = np.zeros(k, dtype=np.int64)
    # stack entries: (row ids into X, depth, parent node id, is a right child,
    # the node's histogram when its parent carried one)
    stacks = [[(rows, 0, -1, False, None)] for rows in roots]

    def counted(size, depth):
        """Whether a node of ``size`` rows at ``depth`` is, if it can split,
        searched alone on every feature and counted by histogram."""
        return (not draw and size >= _LEVEL_ROWS and (max_depth is None or depth < max_depth)
                and _use_histogram(nbins, size, d))

    def search(nodes, hist=None):
        """Search the (tree, stack entry, counts, candidate features) nodes in
        one call, with the histogram of a lone node when given; record each
        as a split or a leaf, and push a split's children."""
        _, entries, counts, feats = zip(*nodes)
        found = _best_splits(spec, bins, np.concatenate([idx for idx, *_ in entries]),
                             np.array([idx.size for idx, *_ in entries]), np.array(counts),
                             n, msl, np.array(feats) if draw else None, hist)
        for (t, (idx, depth, parent, is_right, _), c, _), score, f, threshold in zip(
                nodes, *found):
            nid = len(made[t])
            if not score > spec.halting_slack:
                made[t].append((parent, is_right, -1, 0.0, c))
                continue
            made[t].append((parent, is_right, f, threshold, no_counts))
            mask = X[idx, f] <= threshold
            kids, carry = (idx[mask], idx[~mask]), [None, None]  # left, right
            if not (kids[0].size and kids[1].size):  # else its rows would be pushed again, forever
                raise RuntimeError(f"tree {t} node {nid}: the split on feature {f} at"
                                   f" {threshold} leaves a child empty")
            big = int(kids[1].size > kids[0].size)
            if hist is not None and counted(kids[big].size, depth + 1):
                small = _histogram(bins.keys[kids[1 - big]], nbins, k)
                carry[big] = hist - small
                if counted(kids[1 - big].size, depth + 1):
                    carry[1 - big] = small
            # right pushed first so the left child is grown (and numbered) first
            stacks[t].append((kids[1], depth + 1, nid, True, carry[1]))
            stacks[t].append((kids[0], depth + 1, nid, False, carry[0]))

    live = range(len(roots))
    while live:
        small = []  # (tree, stack entry, counts, candidate features)
        for t in live:
            stack = stacks[t]
            while stack:
                node = idx, depth, parent, is_right, hist = stack.pop()
                if not draw and idx.size < _LEVEL_ROWS:
                    deferred[t].append(node[:4])
                    continue
                counts = np.bincount(y[idx], minlength=k)
                if not (np.count_nonzero(counts) > 1 and idx.size >= 2 * msl
                        and (max_depth is None or depth < max_depth)):
                    made[t].append((parent, is_right, -1, 0.0, counts))
                    continue
                feats = np.sort(rngs[t].choice(d, size=subsample, replace=False)) if draw else None
                if idx.size < _LEVEL_ROWS:
                    small.append((t, node, counts, feats))
                    break
                if hist is None and counted(idx.size, depth):
                    hist = _histogram(bins.keys[idx], nbins, k)
                search([(t, node, counts, feats)], hist)
        if small:
            search(small)
        live = [t for t, *_ in small]

    trees = []
    for records, waiting in zip(made, deferred):
        parts = [tuple(map(np.array, zip(*records)))] if records else []
        if waiting:
            parts += _grow_levels(spec, bins, X, y, k, params, waiting, len(records))
        trees.append(_assemble(spec, k, parts, preorder=not waiting))
    return trees


def _assemble(spec: CriterionSpec, k: int, parts: list[tuple], preorder: bool) -> Tree:
    """The tree of node records (each part one array per field, as
    ``_fit_trees`` makes them), renumbered to preorder unless they are in it."""
    parent, is_right, feature, threshold, counts = (np.concatenate(a) for a in zip(*parts))
    m = parent.size
    child = np.full((m + 1, 2), -1)  # a node's (left, right); row m stays -1
    child[parent[1:], is_right[1:].astype(np.intp)] = np.arange(1, m)
    if not preorder:
        order, stack, kids = [], [0], child.tolist()
        while stack:
            i = stack.pop()
            order.append(i)
            if kids[i][0] >= 0:
                stack += kids[i][::-1]
        new = np.full(m + 1, -1)
        new[order] = np.arange(m)
        child = new[child[order]]  # -1 reads row m of new, which stays -1
        feature, threshold, counts = feature[order], threshold[order], counts[order]
    return Tree(spec, k, feature, threshold, child[:m, 0], child[:m, 1], counts)


def _grow_levels(spec: CriterionSpec, bins: _Bins, X: np.ndarray, y: np.ndarray, k: int,
                 params: TreeParams, deferred: list[tuple], first_id: int) -> list[tuple]:
    """Grow the deferred nodes' subtrees together, one depth per step.

    ``deferred`` holds the (rows, depth, parent id, is_right) of the nodes
    to grow, whose ids start at ``first_id``.  Each step counts the classes
    of every node with one ``bincount``, searches all splittable nodes with
    one :func:`_best_splits` call and moves the rows of the splits to their
    children with one stable argsort.  Returns each level's node records,
    one array per field, as ``fit`` makes them.
    """
    msl, max_depth = params.min_samples_leaf, params.max_depth
    rows = np.concatenate([idx for idx, *_ in deferred])
    sizes, depth, parent, is_right = (
        np.array(a) for a in zip(*((idx.shape[0], *rest) for idx, *rest in deferred)))
    parts = []
    while sizes.size:
        s = sizes.size
        seg = np.repeat(np.arange(s), sizes)  # each row's node
        counts = np.bincount(seg * k + y[rows], minlength=s * k).reshape(s, k)
        splittable = (np.count_nonzero(counts, axis=1) > 1) & (sizes >= 2 * msl)
        if max_depth is not None:
            splittable &= depth < max_depth
        feature, threshold = np.full(s, -1), np.zeros(s)
        at = np.flatnonzero(splittable)
        if at.size:
            score, f, t = _best_splits(spec, bins, rows[splittable[seg]], sizes[at], counts[at],
                                       y.shape[0], msl)
            good = score > spec.halting_slack
            feature[at[good]], threshold[at[good]] = f[good], t[good]
        split = feature >= 0
        parts.append((parent, is_right, feature, threshold, np.where(split[:, None], 0, counts)))
        # the next level: the children of the splits, each left before right
        ids = first_id + np.arange(s)
        first_id += s
        rows, seg = rows[split[seg]], seg[split[seg]]
        slot = 2 * seg + (X[rows, feature[seg]] > threshold[seg])
        rows = rows[np.argsort(slot, kind="stable")]
        sizes = np.bincount(slot, minlength=2 * s)
        kids = np.flatnonzero(sizes)
        if kids.size < 2 * np.count_nonzero(split):  # else its rows would be split again, forever
            bad = np.flatnonzero(split & ~sizes.reshape(s, 2).all(axis=1))[0]
            raise RuntimeError(f"node {ids[bad]}: the split on feature {feature[bad]} at"
                               f" {threshold[bad]} leaves a child empty")
        up = kids // 2
        sizes, depth, parent, is_right = sizes[kids], depth[up] + 1, ids[up], kids % 2

    return parts


def _too_few_columns(min_columns: int, shape: tuple) -> ValueError:
    return ValueError(f"the model splits on feature {min_columns - 1}, so it needs"
                      f" an n x d input with d >= {min_columns}; got shape {shape}")


def _row(x, min_columns: int) -> memoryview:
    """One feature vector as a memoryview of 1-D float64 with at least
    ``min_columns`` entries, else ``ValueError`` naming its shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"a single row must be a 1-D feature vector; got shape {x.shape}")
    if x.shape[0] < min_columns:
        raise _too_few_columns(min_columns, x.shape)
    return memoryview(x)


def _leaf_of(walk: list, row: memoryview) -> int:
    """The leaf a :func:`_row` reaches along ``Tree._walk``: each step
    compares a Python float with a threshold by the ``<=`` of batch routing."""
    nid = 0
    feature, threshold, left, right = walk[0]
    while feature >= 0:
        nid = left if row[feature] <= threshold else right
        feature, threshold, left, right = walk[nid]
    return nid


def predict(tree: Tree, x) -> tuple[int, np.ndarray]:
    """Route one 1-D feature vector to a leaf; returns (class, distribution),
    equal to the row of :func:`predict_batch` for ``x`` bit for bit."""
    nid = _leaf_of(tree._walk, _row(x, tree.min_columns))
    return int(tree.predicted_class[nid]), tree.distribution[nid]


def predict_batch(tree: Tree, features) -> tuple[np.ndarray, np.ndarray]:
    """Route an n x d matrix one depth per step; returns (classes, distributions)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < tree.min_columns:
        raise _too_few_columns(tree.min_columns, X.shape)
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


_TREE_KEYS = ("criterion", "K", "nodes")
_NODE_KEYS = {"split": ("kind", "feature", "threshold", "left", "right"),
              "leaf": ("kind", "counts")}


def _overflows(value, dtype: np.dtype) -> bool:
    try:
        dtype.type(value)
    except OverflowError:
        return True
    return False


def tree_from_dict(data: dict) -> Tree:
    """Build a tree from its JSON form, checking that it is a well-formed model.

    Raises ``ValueError`` naming the first offending part: a value of the
    wrong JSON type, an integer beyond int64 (beyond float64 for a threshold),
    K below 2, an unknown kind, an unknown or missing key, a split whose
    feature is negative, whose threshold is not finite or whose children are
    not numbered after it and inside the tree, a node other than the root
    that is not the child of exactly one split, or leaf counts that are not
    K nonnegative entries with a positive total.
    """
    model = _read("tree model", data, _TREE_KEYS, _TREE_KEYS)
    spec = CriterionSpec.from_dict(model["criterion"])
    k = _class_count(_json(model["K"], int, "K"))
    entries = _json(model["nodes"], list, "nodes")
    if not entries:
        raise ValueError("tree model has no nodes")
    at, splits, leaves = [], [], []  # the splits' node ids and fields, the leaves' counts
    for nid, entry in enumerate(entries):
        if not isinstance(entry, dict):  # inline: the message is built only on failure
            raise _wrong_json(entry, dict, f"node {nid}")
        try:
            kind = entry["kind"]
            if kind == "split":
                at.append(nid)
                splits.append((entry["feature"], entry["threshold"], entry["left"],
                               entry["right"]))
            elif kind == "leaf":
                counts = entry["counts"]
                if not isinstance(counts, list):
                    raise _wrong_json(counts, list, f"node {nid}: counts")
                if len(counts) != k:
                    raise ValueError(f"node {nid}: counts has {len(counts)} entries, K is {k}")
                leaves.append(counts)
            else:
                raise ValueError(f"node {nid}: kind must be 'split' or 'leaf', got {kind!r}")
        except KeyError as exc:
            raise ValueError(f"node {nid}: missing key {exc}") from None
    # a node holds its kind's 5 or 2 keys, so more are unknown; one count spares the loop a check
    if sum(map(len, entries)) != 5 * len(at) + 2 * len(leaves):
        nid, key = next((i, key) for i, entry in enumerate(entries) for key in entry
                        if key not in _NODE_KEYS[entry["kind"]])
        raise ValueError(f"node {nid}: unknown key {key!r}")
    n = len(entries)
    split = np.zeros(n, dtype=bool)
    split[at] = True
    fields = tuple(zip(*splits)) or ((),) * 4
    flat = list(chain.from_iterable(leaves))  # K entries per leaf
    feature, left, right = np.full((3, n), -1)
    # the leaves' counts only: the nodes x K array waits for every check, so a huge K
    # allocates no more than the K-entry lists already read from the file
    threshold, leaf_counts = np.zeros(n), np.zeros((len(leaves), k), dtype=np.int64)
    # each field's JSON type, then its range, one column at a time; a message is built
    # only on failure. A threshold may be an integer, or null, which reads as nan and
    # fails as not finite.
    number = {int, float, type(None)}
    node = lambda column, i: np.flatnonzero(~split)[i // k] if column is flat else at[i]
    for what, column, kinds, array, rows in (
            ("feature", fields[0], {int}, feature, split),
            ("threshold", fields[1], number, threshold, split),
            ("left", fields[2], {int}, left, split), ("right", fields[3], {int}, right, split),
            ("a count", flat, {int}, leaf_counts, ...)):
        if not kinds.issuperset(map(type, column)):
            i = next(i for i, value in enumerate(column) if type(value) not in kinds)
            raise _wrong_json(column[i], float if kinds is number else int,
                              f"node {node(column, i)}: {what}")
        try:
            array[rows] = np.array(column, dtype=array.dtype).reshape(-1, *array.shape[1:])
        except OverflowError:  # an integer beyond int64, or beyond float64 for a threshold
            i = next(i for i, value in enumerate(column) if _overflows(value, array.dtype))
            raise ValueError(f"node {node(column, i)}: {what} is out of range"
                             f" for {array.dtype}") from None
    ids = np.arange(n)
    bad = np.flatnonzero(split & ((feature < 0) | ~np.isfinite(threshold)
                                  | (np.minimum(left, right) <= ids)
                                  | (np.maximum(left, right) >= n)))
    if bad.size:
        raise ValueError(f"node {bad[0]}: a split needs feature >= 0, a finite threshold"
                         f" and both children numbered after it and below {n}")
    parents = np.bincount(np.concatenate((left[split], right[split])), minlength=n)
    bad = np.flatnonzero(parents[1:] != 1) + 1  # the root has none, as children follow parents
    if bad.size:
        raise ValueError(f"node {bad[0]}: the child of {parents[bad[0]]} splits, where every"
                         " node but the root must be the child of exactly one")
    bad = np.flatnonzero((leaf_counts < 0).any(axis=1) | (leaf_counts.sum(axis=1) <= 0))
    if bad.size:
        raise ValueError(f"node {np.flatnonzero(~split)[bad[0]]}: leaf counts must be"
                         " nonnegative with a positive total")
    counts = np.zeros((n, k), dtype=np.int64)
    counts[~split] = leaf_counts
    return Tree(spec, k, feature, threshold, left, right, counts)


def save_tree(tree: Tree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh)
        fh.write("\n")


def load_tree(path) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))

