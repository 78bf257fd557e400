"""The one split search and its two ways of counting.

``tree._best_splits`` reads its nodes' per-fit ``bin * K + label`` keys and
counts them either with one ``bincount`` or by sorting each feature's keys,
as ``tree._use_histogram`` picks.  Both ways must give every node the
identical (score, feature, threshold), bit for bit, equal to the one-node
search of ``reference.loop_search``, whether the node is searched alone or
with others, and a fit or forest must equal ``reference.grow`` or
``reference.grow_forest`` whichever way each search counts.
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
from reference import SPECS, _bits, _column, grow, grow_forest, loop_search
from synth import gaussian_blobs, separable_categorical

# midpoints that round onto the upper value or overflow
EDGES = np.array([np.nextafter(1.0, 0.0), 1.0, 1.5e308, 1.7e308])


def _answers(found) -> list:
    """Each node's (score bits, feature, threshold bits) from a
    ``_best_splits`` result, or None where the node has no candidate."""
    answers = []
    for score, feature, threshold in zip(*found):
        if feature < 0:
            assert score == -np.inf and _bits(threshold) == _bits(0.0)
            answers.append(None)
        else:
            answers.append((_bits(score), int(feature), _bits(threshold)))
    return answers


def _search(spec, bins, idx: list, feats, counts, n, min_samples_leaf, counted: bool) -> list:
    """The answers of one ``_best_splits`` call over the nodes ``idx``,
    counting their keys as ``counted`` says."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tree, "_use_histogram", lambda bins, rows, features: counted)
        return _answers(tree._best_splits(spec, bins, np.concatenate(idx),
                                          np.array([i.size for i in idx]), counts, n,
                                          min_samples_leaf, feats))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["low", "mixed", "continuous"]), min_size=1, max_size=6),
       n=st.integers(2, 60), k=st.integers(2, 4), spec=st.sampled_from(SPECS),
       min_samples_leaf=st.integers(1, 4), subset=st.booleans(),
       rows=st.sampled_from(["subset", "resample", "repeats"]), nodes=st.integers(1, 6),
       twin=st.booleans(), edges=st.booleans())
def test_histogram_search_equals_sort_search(seed, kinds, n, k, spec, min_samples_leaf, subset,
                                             rows, nodes, twin, edges):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(rng, kind, n) for kind in kinds])
    if twin:  # a copy of the first feature ties with it on every candidate
        X = np.column_stack([X, X[:, 0]])
    if edges:
        X = np.column_stack([X, rng.choice(EDGES, n)])
    y = rng.integers(0, k, n)
    bins = tree._bin_columns(X, y, k)
    # nodes: subsets of the rows (maybe empty), resamples of n rows as in a
    # bootstrap, or 1 to n rows drawn with repeats
    draw = {"subset": lambda: np.flatnonzero(rng.random(n) < 0.7),
            "resample": lambda: rng.integers(0, n, n),
            "repeats": lambda: rng.integers(0, n, rng.integers(1, n + 1))}[rows]
    idx = [draw() for _ in range(nodes)]
    feats = [None] * nodes
    if subset:  # each node its own sorted draw of f features, as a forest's trees make
        f = rng.integers(1, X.shape[1] + 1)
        feats = np.array([np.sort(rng.choice(X.shape[1], size=f, replace=False))
                          for _ in range(nodes)])
    counts = np.array([np.bincount(y[i], minlength=k) for i in idx])
    found = [_search(spec, bins, idx, feats if subset else None, counts, n, min_samples_leaf,
                     counted) for counted in (True, False)]
    assert found[0] == found[1]
    assert found[0] == [loop_search(spec, X, y, i, chosen, c, n, min_samples_leaf)
                        for i, chosen, c in zip(idx, feats, counts)]


# rows 4 and 5 are equal in every feature but not in label
NO_CANDIDATE_X = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0],
                           [4.0, 1.0]])
NO_CANDIDATE_Y = np.array([0, 1, 0, 1, 0, 1])


@pytest.mark.parametrize("rows, min_samples_leaf",
                         [([], 1), ([2], 1), ([4, 5, 4], 1), ([0, 1, 2], 2)],
                         ids=["empty", "one row", "equal rows", "leaf size"])
@pytest.mark.parametrize("subset", [False, True], ids=["all features", "subset"])
@pytest.mark.parametrize("counted", [True, False], ids=["counted", "sorted"])
def test_a_node_without_a_candidate_scores_minus_inf(rows, min_samples_leaf, subset, counted):
    X, y = NO_CANDIDATE_X, NO_CANDIDATE_Y
    n, spec = y.size, CriterionSpec("entropy")
    bins = tree._bin_columns(X, y, 2)
    node, other = np.array(rows, dtype=np.intp), np.arange(n)
    for idx in ([node], [node, other], [other, node]):  # alone, then with a node that splits
        counts = np.array([np.bincount(y[i], minlength=2) for i in idx])
        feats = np.array([[1]] * len(idx)) if subset else None
        found = _search(spec, bins, idx, feats, counts, n, min_samples_leaf, counted)
        assert found == [None if i is node else
                         loop_search(spec, X, y, i, None if feats is None else feats[0], c, n,
                                     min_samples_leaf) for i, c in zip(idx, counts)]
        assert None not in [found[j] for j, i in enumerate(idx) if i is other]


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


BIN_POOL = np.array([-1.7e308, -1.0, -0.0, 0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0, 2.5, 1e308])


def _binned_column(rng, distinct: str, n: int) -> np.ndarray:
    """A column of one, two, a few or many values, drawn with signed zeros
    (which are one value), subnormals and huge magnitudes among them."""
    if distinct == "many":
        return rng.normal(0, 1, n) * rng.choice([1e-300, 1.0, 1e300])
    size = {"one": 1, "two": 2, "few": rng.integers(3, BIN_POOL.size + 1)}[distinct]
    return rng.choice(rng.choice(BIN_POOL, size, replace=False), n)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       columns=st.lists(st.sampled_from(["one", "two", "few", "many"]), min_size=1, max_size=6),
       n=st.integers(1, 80), k=st.sampled_from([2, 3, 4, 2**29]))
def test_bins_equal_a_per_column_reference(seed, columns, n, k):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_binned_column(rng, distinct, n) for distinct in columns])
    y = rng.integers(0, k, n)
    # the reference: each column's distinct values, and each row's place among them
    values = [np.unique(col) for col in X.T]
    first = np.concatenate([[0], np.cumsum([v.size for v in values])])
    codes = np.column_stack([np.searchsorted(v, col) for v, col in zip(values, X.T)])
    bins = tree._bin_columns(X, y, k)
    assert bins.keys.dtype == (np.int32 if first[-1] * k < 2**31 else np.intp)
    assert bins.keys.flags.c_contiguous
    assert ((codes + first[:-1]) * k + y[:, None] == bins.keys).all()
    assert bins.values.view(np.int64).tolist() == np.concatenate(values).view(np.int64).tolist()
    assert bins.first.tolist() == first.tolist()


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
    for (X, y), mixed in ((_one_hot(), True), (_blobs(), False)):
        params = TreeParams(spec, min_samples_leaf=2)
        expected = json.dumps(grow(X, y, int(y.max()) + 1, params))
        with monkeypatch.context() as m:
            seen = _counts(m)
            assert json.dumps(tree_to_dict(fit(X, y, params))) == expected
        # one-hot nodes with a few rows sort; larger ones count; the blobs'
        # continuous columns have as many bins as rows, so their nodes sort
        assert (seen[True] > 0 and seen[False] > 0) if mixed else seen[True] == 0
        for counted in (True, False):
            with monkeypatch.context() as m:
                m.setattr(tree, "_use_histogram", lambda bins, rows, features: counted)
                assert json.dumps(tree_to_dict(fit(X, y, params))) == expected


def test_subsampled_bootstrap_forest_equals_a_sort_only_forest(monkeypatch):
    X, y = _one_hot()
    params = ForestParams(TreeParams(CriterionSpec("entropy")), n_trees=3, rng_seed=11)
    expected = json.dumps(grow_forest(X, y, 2, params))
    with monkeypatch.context() as m:
        seen = _counts(m)
        assert json.dumps(forest_to_dict(fit_forest(X, y, params))["trees"]) == expected
    assert seen[True] > 0
    monkeypatch.setattr(tree, "_use_histogram", lambda bins, rows, features: False)
    assert json.dumps(forest_to_dict(fit_forest(X, y, params))["trees"]) == expected
