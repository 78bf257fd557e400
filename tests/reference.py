"""The plain depth-first grower that every equality test of the learner
compares with.

It shares no code with the learner in ``robust_trees.tree``: from the
package it takes only the split-score formula (``split_scores``) and the
criterion spec.  :func:`loop_search` searches one node over every boundary
between distinct values of each candidate feature; :func:`grow` grows a tree
depth-first, every node searched alone; :func:`grow_forest` grows a
forest's trees one after another, each on its own resample.  Their
answers are the bits a fit of the learner must give.
"""

import math
from dataclasses import replace

import numpy as np

from robust_trees.criteria import CriterionSpec, split_scores

SPECS = [CriterionSpec("gini"), CriterionSpec("entropy"), CriterionSpec("misclassification"),
         CriterionSpec("mae"), CriterionSpec("gce", q=0.5), CriterionSpec("gce", q=2.0),
         CriterionSpec("ne", lam=0.0), CriterionSpec("ne", lam=0.5),
         CriterionSpec("ne", lam=1.0), CriterionSpec("twoing")]

SIGNED_LEVELS = np.array([-1.0, -0.0, 0.0, 1.0, 2.5])


def _column(rng, kind: str, n: int) -> np.ndarray:
    if kind == "low":  # a few levels, signed zeros among them
        return rng.choice(SIGNED_LEVELS[:rng.integers(1, 6)], n)
    if kind == "mixed":  # repeats and distinct values side by side
        return np.round(rng.normal(0, 1, n), 1)
    return rng.normal(0, 1, n)


def _bits(value) -> int:
    return int(np.float64(value).view(np.int64))


def loop_search(spec, X, y, idx, feats, parent_counts, dataset_size, min_samples_leaf):
    """The best split of the rows ``idx`` as (score bits, feature, threshold
    bits), or None.  The candidates are the boundaries between each feature's
    distinct values in the node that leave ``min_samples_leaf`` rows per
    side, listed feature-major in ascending order and scored in one
    ``split_scores`` call; the first maximum wins.  Each feature's rows are
    sorted by value once, and the class counts left of a boundary are the
    running counts up to the last row of its lower value.  A threshold is
    the midpoint of the values around it, or the lower value when the
    midpoint is not in [lower, upper)."""
    feats = np.arange(X.shape[1]) if feats is None else np.asarray(feats)
    size = idx.size
    node = X[idx][:, feats]  # one column per candidate feature
    order = np.argsort(node, axis=0, kind="stable")
    values = np.take_along_axis(node, order, axis=0)
    # running[i, c]: the class counts of column c's sorted rows 0..i
    running = np.eye(parent_counts.size, dtype=np.int64)[y[idx]][order].cumsum(axis=0)
    n_left = np.arange(1, size)  # the rows left of a boundary after each sorted row
    enough = np.minimum(n_left, size - n_left) >= min_samples_leaf
    column, at = np.nonzero(((values[:-1] < values[1:]) & enough[:, None]).T)  # feature-major
    if at.size == 0:
        return None
    scores = split_scores(spec, parent_counts, running[at, column], dataset_size)
    best = int(np.argmax(scores))
    c, i = column[best], at[best]
    lo, hi = float(values[i, c]), float(values[i + 1, c])
    mid = (lo + hi) / 2.0  # Python floats overflow to inf without a warning
    return _bits(scores[best]), int(feats[c]), _bits(mid if lo <= mid < hi else lo)


def grow(X, y, k, tree_params, rng=None) -> dict:
    """The JSON form of the tree grown depth-first on (X, y) with K = ``k``,
    every node searched alone by :func:`loop_search` and weighed against the
    rows of X.  A node splits when it holds two classes or more, leaves
    ``min_samples_leaf`` rows per side, is above ``max_depth`` and its best
    score exceeds the criterion's halting slack.  Given ``rng``, and a
    ``feature_subsample`` below the feature count, a node that can split
    first draws its sorted subset of features, so the draws keep preorder."""
    n, d = X.shape
    spec = tree_params.criterion
    msl, max_depth = tree_params.min_samples_leaf, tree_params.max_depth
    subsample = tree_params.feature_subsample
    draw = rng is not None and subsample is not None and subsample < d
    nodes = []

    def split(idx, depth):
        counts = np.bincount(y[idx], minlength=k)
        nodes.append({"kind": "leaf", "counts": counts.tolist()})
        if not (np.count_nonzero(counts) > 1 and idx.size >= 2 * msl
                and (max_depth is None or depth < max_depth)):
            return
        feats = np.sort(rng.choice(d, size=subsample, replace=False)) if draw else None
        found = loop_search(spec, X, y, idx, feats, counts, n, msl)
        if found is None or not np.int64(found[0]).view(np.float64) > spec.halting_slack:
            return
        f, t = found[1], float(np.int64(found[2]).view(np.float64))
        goes_left = X[idx, f] <= t
        nodes[-1] = node = {"kind": "split", "feature": f, "threshold": t}
        node["left"] = len(nodes)
        split(idx[goes_left], depth + 1)
        node["right"] = len(nodes)
        split(idx[~goes_left], depth + 1)

    split(np.arange(n), 0)
    return {"criterion": spec.to_dict(), "K": k, "nodes": nodes}


def grow_forest(X, y, k, forest_params) -> list[dict]:
    """The JSON forms of a forest's trees, grown one after another.  Each
    tree's generator, spawned from the forest seed, draws the tree's
    bootstrap rows (all rows, in order, without bootstrap), then
    :func:`grow` grows the tree on those rows, drawing ``feature_subsample``
    features per split, ceil(sqrt(d)) by default."""
    n, d = X.shape
    tp = forest_params.tree_params
    tp = replace(tp, feature_subsample=tp.feature_subsample or min(d, math.ceil(math.sqrt(d))))
    trees = []
    for seed in np.random.SeedSequence(forest_params.rng_seed).spawn(forest_params.n_trees):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=n) if forest_params.bootstrap else np.arange(n)
        trees.append(grow(X[rows], y[rows], k, tp, rng))
    return trees
