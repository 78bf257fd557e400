"""The hybrid grower: small subtrees grow level by level, searched together.

``tree.fit`` grows nodes of ``tree._LEVEL_ROWS`` rows or more depth-first,
each searched alone.  Smaller nodes wait, and then grow together, one
``tree._best_splits`` call per level.  That call must give every node the
bits ``reference.loop_search`` gives it, over every feature or over each
node's own drawn features (as a forest searches its trees' small nodes),
whichever way it counts, and a fit must give the JSON of ``reference.grow``,
which grows every node depth-first.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_trees import tree
from robust_trees.criteria import CriterionSpec, split_scores
from robust_trees.forest import ForestParams, fit_forest
from robust_trees.tree import TreeParams, fit, tree_to_dict
from reference import SPECS, _bits, _column, grow, loop_search
from synth import gaussian_blobs, separable_categorical
from test_split_search import EDGES, _search


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["low", "mixed", "continuous"]), min_size=1, max_size=5),
       n=st.integers(2, 60), k=st.integers(2, 4), spec=st.sampled_from(SPECS),
       min_samples_leaf=st.integers(1, 4), nodes=st.integers(1, 6), twin=st.booleans(),
       edges=st.booleans(), counted=st.booleans(), subset=st.booleans())
def test_batched_search_equals_the_lone_search(seed, kinds, n, k, spec, min_samples_leaf,
                                               nodes, twin, edges, counted, subset):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(rng, kind, n) for kind in kinds])
    if twin:  # a copy of the first feature ties with it on every candidate
        X = np.column_stack([X, X[:, 0]])
    if edges:
        X = np.column_stack([X, rng.choice(EDGES, n)])
    y = rng.integers(0, k, n)
    bins = tree._bin_columns(X, y, k)
    # nodes of 1 to n rows, drawn with repeats as in a bootstrap resample
    idx = [rng.integers(0, n, rng.integers(1, n + 1)) for _ in range(nodes)]
    counts = np.array([np.bincount(y[i], minlength=k) for i in idx])
    feats = [None] * nodes
    if subset:  # each node its own sorted draw of f features, as a forest's trees make
        f = rng.integers(1, X.shape[1] + 1)
        feats = np.array([np.sort(rng.choice(X.shape[1], size=f, replace=False))
                          for _ in range(nodes)])
    found = _search(spec, bins, idx, feats if subset else None, counts, n, min_samples_leaf,
                    counted)
    assert found == [loop_search(spec, X, y, i, chosen, c, n, min_samples_leaf)
                     for i, chosen, c in zip(idx, feats, counts)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_split_scores_gathers_each_parent_bit_for_bit(spec):
    rng = np.random.default_rng(3)
    parents = rng.integers(2, 40, (5, 3))
    node = rng.integers(0, 5, 200)
    left = np.minimum(rng.integers(1, 40, (200, 3)), parents[node] - 1)
    batched = split_scores(spec, parents, np.ascontiguousarray(left.T).T, 500, node=node)
    for i in range(node.size):
        assert _bits(batched[i]) == _bits(split_scores(spec, parents[node[i]], left[i], 500))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 700),
       columns=st.tuples(st.integers(0, 10), st.integers(0, 2), st.integers(0, 4)).filter(any),
       k=st.integers(2, 4), spec=st.sampled_from(SPECS),
       max_depth=st.one_of(st.none(), st.integers(1, 10)), min_samples_leaf=st.integers(1, 40))
def test_hybrid_fit_equals_a_depth_first_fit(seed, n, columns, k, spec, max_depth,
                                             min_samples_leaf):
    rng = np.random.default_rng(seed)
    low, mixed, rounded = columns
    # low-cardinality columns, which nodes of 128 rows or more count by histogram
    # and whose splits carry histograms; columns of repeats among many values;
    # and normal columns rounded to 0-2 decimals
    X = np.column_stack([_column(rng, "low", n) for _ in range(low)]
                        + [_column(rng, "mixed", n) for _ in range(mixed)]
                        + [np.round(rng.normal(0, 1, (n, rounded)), int(rng.integers(0, 3)))])
    y = rng.integers(0, k, n)
    params = TreeParams(spec, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    assert json.dumps(tree_to_dict(fit(X, y, params, k))) == json.dumps(grow(X, y, k, params))


def test_a_root_under_the_cut_grows_level_by_level(monkeypatch):
    X, y = gaussian_blobs(20, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], seed=2)  # 60 rows
    calls = []
    levels = tree._grow_levels
    monkeypatch.setattr(tree, "_grow_levels", lambda *a: calls.append(1) or levels(*a))
    params = TreeParams(CriterionSpec("entropy"))
    hybrid = json.dumps(tree_to_dict(fit(X, y, params)))
    assert calls
    assert hybrid == json.dumps(grow(X, y, 3, params))


@pytest.mark.parametrize("spec", [CriterionSpec("entropy"), CriterionSpec("misclassification"),
                                  CriterionSpec("gce", q=0.7), CriterionSpec("twoing")],
                         ids=lambda s: s.label())
@pytest.mark.parametrize("kw", [{}, {"min_samples_leaf": 5}, {"max_depth": 6}], ids=str)
def test_hybrid_fit_equals_a_depth_first_fit_on_larger_data(spec, kw):
    X, y = separable_categorical(n=900, seed=4)
    one_hot = X, np.where(np.random.default_rng(5).random(y.size) < 0.3, 1 - y, y)
    blobs = gaussian_blobs(150, [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], seed=6)
    for (X, y), k in ((one_hot, 2), (blobs, 3)):
        params = TreeParams(spec, **kw)
        assert json.dumps(tree_to_dict(fit(X, y, params))) == json.dumps(grow(X, y, k, params))


def test_subsampled_fits_never_defer(monkeypatch):
    def refuse(*args):
        raise AssertionError("a subsampled fit grew nodes level by level")
    monkeypatch.setattr(tree, "_grow_levels", refuse)
    X, y = separable_categorical(n=300, seed=7)
    fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("entropy")), n_trees=2))
    fit(X, y, TreeParams(CriterionSpec("gini"), feature_subsample=3))


@pytest.mark.parametrize("rows,kw", [(300, {}), (60, {}), (300, {"feature_subsample": 2})],
                         ids=["depth-first", "level-by-level", "drawn-features"])
def test_a_split_with_an_empty_child_fails_instead_of_growing_forever(rows, kw, monkeypatch):
    # a search that puts every row on the left would push the same rows again
    # one depth deeper; without max_depth the fit would never end
    search = tree._best_splits

    def past_every_value(*args, **kwargs):
        scores, features, thresholds = search(*args, **kwargs)
        return scores, features, np.full_like(thresholds, np.inf)

    monkeypatch.setattr(tree, "_best_splits", past_every_value)
    X, y = gaussian_blobs(rows // 3, [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0]], seed=2)
    with pytest.raises(RuntimeError, match="leaves a child empty"):
        fit(X, y, TreeParams(CriterionSpec("entropy"), max_depth=30, **kw))
