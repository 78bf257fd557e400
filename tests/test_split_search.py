"""The two exact split searches: column sort and per-bin class counts.

``tree._best_split`` sorts the node's columns; ``tree._best_split_hist``
counts classes per bin of the columns' distinct values.  They must return
the identical (score, feature, threshold) on every node, and a fit must not
depend on which of them each node took.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_trees import tree
from robust_trees.criteria import CriterionSpec
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
    bins = tree._bin_columns(X)
    # a node: a subset of the rows, with repeats as in a bootstrap resample
    idx = rng.integers(0, n, n) if resample else np.flatnonzero(rng.random(n) < 0.7)
    feats = None
    if subset:
        feats = np.sort(rng.choice(X.shape[1], size=rng.integers(1, X.shape[1] + 1),
                                   replace=False))
    Xn = X[idx] if feats is None else X[idx[:, None], feats[None, :]]
    counts = np.bincount(y[idx], minlength=k)
    by_sort = tree._best_split(spec, Xn, y[idx], counts, n, min_samples_leaf)
    by_bins = tree._best_split_hist(spec, bins, idx, feats, y[idx], counts, n,
                                    min_samples_leaf)
    assert by_sort == by_bins


def test_bins_are_the_distinct_values_in_order():
    X = np.array([[2.0, -0.0], [1.0, 0.0], [2.0, 5.0], [0.5, 0.0]])
    bins = tree._bin_columns(X)
    assert bins.values.tolist() == [0.5, 1.0, 2.0, 0.0, 5.0]
    assert bins.first.tolist() == [0, 3, 5]
    assert bins.codes.tolist() == [[2, 3], [1, 3], [2, 4], [0, 3]]
    assert (bins.values[bins.codes] == X).all()


def _one_hot():
    X, y = separable_categorical(n=600, seed=4)
    flip = np.random.default_rng(5).random(y.size) < 0.3
    return X, np.where(flip, 1 - y, y)


def _blobs():
    return gaussian_blobs(100, [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], seed=6)


def _searches(monkeypatch) -> dict:
    """Count the nodes each search handles from now on."""
    seen = {"sort": 0, "hist": 0}
    for name, key in (("_best_split", "sort"), ("_best_split_hist", "hist")):
        def counted(*args, _search=getattr(tree, name), _key=key):
            seen[_key] += 1
            return _search(*args)
        monkeypatch.setattr(tree, name, counted)
    return seen


@pytest.mark.parametrize("spec", [CriterionSpec("entropy"), CriterionSpec("misclassification"),
                                  CriterionSpec("ne", lam=0.5), CriterionSpec("twoing")])
def test_fit_equals_a_sort_only_fit(spec, monkeypatch):
    for data, mixed in ((_one_hot(), True), (_blobs(), False)):
        params = TreeParams(spec, min_samples_leaf=2)
        seen = _searches(monkeypatch)
        chosen = json.dumps(tree_to_dict(fit(*data, params)))
        # one-hot nodes with a few rows sort; larger ones count bins; the
        # blobs' continuous columns are never binned
        assert (seen["sort"] > 0 and seen["hist"] > 0) if mixed else seen["hist"] == 0
        with monkeypatch.context() as m:
            m.setattr(tree, "_use_histogram", lambda bins, rows, features: False)
            assert json.dumps(tree_to_dict(fit(*data, params))) == chosen


def test_continuous_columns_are_not_binned():
    X, _ = _blobs()
    assert tree._bin_columns(X, X.shape[1]) is None
    X, _ = _one_hot()
    assert tree._bin_columns(X, X.shape[1]) is not None


def test_subsampled_bootstrap_forest_equals_a_sort_only_forest(monkeypatch):
    X, y = _one_hot()
    params = ForestParams(TreeParams(CriterionSpec("entropy")), n_trees=3, rng_seed=11)
    seen = _searches(monkeypatch)
    chosen = json.dumps(forest_to_dict(fit_forest(X, y, params)))
    assert seen["hist"] > 0
    monkeypatch.setattr(tree, "_use_histogram", lambda bins, rows, features: False)
    assert json.dumps(forest_to_dict(fit_forest(X, y, params))) == chosen
