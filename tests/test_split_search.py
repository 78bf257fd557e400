"""The one split search and its two ways of counting.

``tree._best_split`` reads each node's per-fit ``bin * K + label`` keys and
counts them either with one ``bincount`` or by sorting each feature's keys,
as ``tree._use_histogram`` picks.  Both ways must return the identical
(score, feature, threshold) on every node, equal to a plain loop over the
midpoints of the node's distinct values, and a fit must not depend on which
way each node took.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_trees import tree
from robust_trees.criteria import CriterionSpec, split_scores
from robust_trees.forest import ForestParams, fit_forest, forest_to_dict
from robust_trees.tree import TreeParams, fit, tree_to_dict
from synth import gaussian_blobs, separable_categorical

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


def _loop_search(spec, X, y, idx, feats, parent_counts, dataset_size, min_samples_leaf):
    """The best split by a loop over each candidate feature's distinct
    values in the node, scored in one ``split_scores`` call."""
    found, lefts = [], []
    for f in range(X.shape[1]) if feats is None else feats:
        col = X[idx, f]
        values = np.unique(col)
        for lo, hi in zip(values[:-1], values[1:]):
            goes_left = col <= lo
            if min(goes_left.sum(), (~goes_left).sum()) >= min_samples_leaf:
                found.append((int(f), float((lo + hi) / 2.0)))
                lefts.append(np.bincount(y[idx][goes_left], minlength=parent_counts.size))
    if not found:
        return None
    scores = split_scores(spec, parent_counts, np.array(lefts), dataset_size)
    best = int(np.argmax(scores))
    return (float(scores[best]), *found[best])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["low", "mixed", "continuous"]), min_size=1, max_size=6),
       n=st.integers(2, 60), k=st.sampled_from([2, 3]), spec=st.sampled_from(SPECS),
       min_samples_leaf=st.integers(1, 4), subset=st.booleans(), resample=st.booleans())
def test_histogram_search_equals_sort_search(seed, kinds, n, k, spec, min_samples_leaf,
                                             subset, resample):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(rng, kind, n) for kind in kinds])
    y = rng.integers(0, k, n)
    bins = tree._bin_columns(X, y, k)
    # a node: a subset of the rows, with repeats as in a bootstrap resample
    idx = rng.integers(0, n, n) if resample else np.flatnonzero(rng.random(n) < 0.7)
    feats = None
    if subset:
        feats = np.sort(rng.choice(X.shape[1], size=rng.integers(1, X.shape[1] + 1),
                                   replace=False))
    counts = np.bincount(y[idx], minlength=k)
    found = []
    for counted in (True, False):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tree, "_use_histogram", lambda bins, rows, features: counted)
            found.append(tree._best_split(spec, bins, idx, feats, counts, n, min_samples_leaf))
    assert found[0] == found[1]
    assert found[0] == _loop_search(spec, X, y, idx, feats, counts, n, min_samples_leaf)


def test_bins_are_the_distinct_values_in_order():
    X = np.array([[2.0, -0.0], [1.0, 0.0], [2.0, 5.0], [0.5, 0.0]])
    y = np.array([1, 0, 2, 1])
    bins = tree._bin_columns(X, y, 3)
    assert bins.values.tolist() == [0.5, 1.0, 2.0, 0.0, 5.0]
    assert bins.first.tolist() == [0, 3, 5]
    assert bins.keys.dtype == np.int32
    assert (bins.keys // 3).tolist() == [[2, 3], [1, 3], [2, 4], [0, 3]]
    assert (bins.values[bins.keys // 3] == X).all()
    assert (bins.keys % 3 == y[:, None]).all()


def test_keys_widen_when_32_bits_cannot_hold_them():
    X = np.array([[0.5], [-1.0], [2.0], [0.5]])
    y = np.array([0, 2**30 - 1, 7, 2**30 - 2])
    k = 2**30  # 3 bins x 2**30 labels reach 2**31
    bins = tree._bin_columns(X, y, k)
    assert bins.keys.dtype == np.intp
    assert (bins.values[bins.keys // k] == X).all()
    assert (bins.keys % k == y[:, None]).all()


def _one_hot():
    X, y = separable_categorical(n=600, seed=4)
    flip = np.random.default_rng(5).random(y.size) < 0.3
    return X, np.where(flip, 1 - y, y)


def _blobs():
    return gaussian_blobs(100, [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], seed=6)


def _counts(monkeypatch) -> dict:
    """Count the searches that count their keys, and those that sort them, from now on."""
    seen = {True: 0, False: 0}
    choose = tree._use_histogram

    def counted(*args):
        choice = choose(*args)
        seen[choice] += 1
        return choice
    monkeypatch.setattr(tree, "_use_histogram", counted)
    return seen


@pytest.mark.parametrize("spec", [CriterionSpec("entropy"), CriterionSpec("misclassification"),
                                  CriterionSpec("ne", lam=0.5), CriterionSpec("twoing")])
def test_fit_equals_a_sort_only_fit(spec, monkeypatch):
    for data, mixed in ((_one_hot(), True), (_blobs(), False)):
        params = TreeParams(spec, min_samples_leaf=2)
        with monkeypatch.context() as m:
            seen = _counts(m)
            chosen = json.dumps(tree_to_dict(fit(*data, params)))
        # one-hot nodes with a few rows sort; larger ones count; the blobs'
        # continuous columns have as many bins as rows, so their nodes sort
        assert (seen[True] > 0 and seen[False] > 0) if mixed else seen[True] == 0
        for counted in (True, False):
            with monkeypatch.context() as m:
                m.setattr(tree, "_use_histogram", lambda bins, rows, features: counted)
                assert json.dumps(tree_to_dict(fit(*data, params))) == chosen


def test_subsampled_bootstrap_forest_equals_a_sort_only_forest(monkeypatch):
    X, y = _one_hot()
    params = ForestParams(TreeParams(CriterionSpec("entropy")), n_trees=3, rng_seed=11)
    with monkeypatch.context() as m:
        seen = _counts(m)
        chosen = json.dumps(forest_to_dict(fit_forest(X, y, params)))
    assert seen[True] > 0
    monkeypatch.setattr(tree, "_use_histogram", lambda bins, rows, features: False)
    assert json.dumps(forest_to_dict(fit_forest(X, y, params))) == chosen
