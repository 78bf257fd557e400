"""Histogram subtraction in the depth-first grower.

A node of a fit that draws no features, searched alone and counted by
histogram, takes its class counts per bin from its stack entry when its
parent left them there: the parent's histogram less the smaller sibling's
count.  Those are the integers a count of the node's own keys gives, so a
search given a histogram must return the bits it returns when it counts,
and every fit must equal ``reference.grow``, in which every node counts
its own rows.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_trees import tree
from robust_trees.criteria import CriterionSpec
from robust_trees.tree import TreeParams, fit, tree_to_dict
from reference import SPECS, _column, grow
from synth import separable_categorical
from test_split_search import _answers, _search


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 700), low=st.integers(1, 10),
       mixed=st.integers(0, 2), k=st.sampled_from([2, 3]), spec=st.sampled_from(SPECS),
       max_depth=st.one_of(st.none(), st.integers(1, 10)), min_samples_leaf=st.integers(1, 40))
def test_fit_equals_a_depth_first_tree_that_counts_every_node(seed, n, low, mixed, k, spec,
                                                              max_depth, min_samples_leaf):
    rng = np.random.default_rng(seed)
    # low-cardinality columns, which nodes of 128 rows or more count by histogram,
    # and maybe a few columns of repeats among many values
    X = np.column_stack([_column(rng, "low", n) for _ in range(low)]
                        + [_column(rng, "mixed", n) for _ in range(mixed)])
    y = rng.integers(0, k, n)
    params = TreeParams(spec, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    assert json.dumps(tree_to_dict(fit(X, y, params, k))) == json.dumps(grow(X, y, k, params))


def test_carried_histograms_are_the_nodes_own_counts(monkeypatch):
    X, y = separable_categorical(n=1500, seed=4)
    y = np.where(np.random.default_rng(5).random(y.size) < 0.4, 1 - y, y)
    histogram, search = tree._histogram, tree._best_splits
    rows = {"counted": 0, "given": 0}  # rows of keys counted; rows of searches given a histogram

    def count(key, nbins, k):
        rows["counted"] += key.shape[0]
        return histogram(key, nbins, k)

    def searched(spec, bins, idx, *args):
        hist = args[5] if len(args) > 5 else None
        if hist is not None:
            rows["given"] += idx.size
            own = histogram(bins.keys[idx], int(bins.first[-1]), hist.shape[1])
            assert hist.dtype == own.dtype and (hist == own).all()
        return search(spec, bins, idx, *args)

    for spec in (CriterionSpec("entropy"), CriterionSpec("misclassification")):
        params = TreeParams(spec)
        plain = json.dumps(grow(X, y, 2, params))
        with monkeypatch.context() as m:
            m.setattr(tree, "_histogram", count)
            m.setattr(tree, "_best_splits", searched)
            assert json.dumps(tree_to_dict(fit(X, y, params))) == plain
    # the smaller children are counted, and their larger siblings are not
    assert 0 < rows["counted"] < rows["given"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["low", "mixed", "continuous"]), min_size=1, max_size=6),
       n=st.integers(2, 80), k=st.sampled_from([2, 3]), spec=st.sampled_from(SPECS),
       min_samples_leaf=st.integers(1, 4), resample=st.booleans())
def test_a_given_histogram_gives_the_bits_of_a_count(seed, kinds, n, k, spec, min_samples_leaf,
                                                     resample):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(rng, kind, n) for kind in kinds])
    y = rng.integers(0, k, n)
    bins = tree._bin_columns(X, y, k)
    nbins = int(bins.first[-1])
    # a parent (maybe with a bootstrap's repeats) and its two children, maybe one empty
    parent = rng.integers(0, n, n) if resample else np.flatnonzero(rng.random(n) < 0.8)
    goes_left = rng.random(parent.size) < rng.random()
    kids = parent[goes_left], parent[~goes_left]
    whole = tree._histogram(bins.keys[parent], nbins, k)
    for node, hist in ((parent, whole),
                       (kids[0], whole - tree._histogram(bins.keys[kids[1]], nbins, k)),
                       (kids[1], whole - tree._histogram(bins.keys[kids[0]], nbins, k))):
        counts = np.bincount(y[node], minlength=k)[None]
        found = _answers(tree._best_splits(spec, bins, node, np.array([node.size]), counts, n,
                                           min_samples_leaf, None, hist))
        for counted in (True, False):
            assert found == _search(spec, bins, [node], None, counts, n, min_samples_leaf,
                                    counted)
