"""Forest training, averaging, determinism, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_trees.criteria import CriterionSpec
from robust_trees.forest import (
    Forest,
    ForestParams,
    fit_forest,
    forest_from_dict,
    forest_to_dict,
    load_forest,
    predict_forest,
    predict_forest_batch,
    save_forest,
)
from robust_trees.tree import TreeParams, fit, predict_batch, tree_from_dict, tree_to_dict
from reference import SPECS, grow, grow_forest
from test_tree import single_rows, threshold_rows


def _blobs(seed=7, n=300, d=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    w = rng.normal(0, 1, d)
    y = (X @ w > 0).astype(np.int64)
    return X, y


def _leaf_tree(counts):
    return tree_from_dict(
        {"criterion": {"kind": "gini"}, "K": len(counts),
         "nodes": [{"kind": "leaf", "counts": list(counts)}]}
    )


def _stump(feature):
    return tree_from_dict(
        {"criterion": {"kind": "gini"}, "K": 2,
         "nodes": [{"kind": "split", "feature": feature, "threshold": 0.0, "left": 1, "right": 2},
                   {"kind": "leaf", "counts": [1, 0]}, {"kind": "leaf", "counts": [0, 1]}]}
    )


class TestFitForest:
    def test_forest_of_one_equals_tree(self):
        X, y = _blobs()
        fp = ForestParams(
            tree_params=TreeParams(CriterionSpec("entropy"), feature_subsample=X.shape[1]),
            n_trees=1, bootstrap=False, rng_seed=4,
        )
        forest = fit_forest(X, y, fp)
        params = TreeParams(CriterionSpec("entropy"))
        tree = fit(X, y, params)
        expected = json.dumps(grow(X, y, 2, params))
        assert json.dumps(tree_to_dict(forest.trees[0])) == expected
        assert json.dumps(tree_to_dict(tree)) == expected
        cls_f, dist_f = predict_forest_batch(forest, X)
        cls_t, dist_t = predict_batch(tree, X)
        assert (cls_f == cls_t).all()
        assert np.array_equal(dist_f, dist_t)

    def test_separable_training_accuracy(self):
        X = np.arange(12, dtype=float)[:, None]
        y = (X[:, 0] >= 6).astype(np.int64)
        fp = ForestParams(tree_params=TreeParams(CriterionSpec("gini")), n_trees=10,
                          rng_seed=1)
        forest = fit_forest(X, y, fp)
        classes, _ = predict_forest_batch(forest, X)
        assert (classes == y).all()

    def test_seed_changes_the_forest(self):
        X, y = _blobs(seed=17)
        a = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("gini")), n_trees=3,
                                          rng_seed=0))
        b = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("gini")), n_trees=3,
                                          rng_seed=1))
        assert json.dumps(forest_to_dict(a)) != json.dumps(forest_to_dict(b))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -1$"):
            ForestParams(TreeParams(CriterionSpec("gini")), rng_seed=-1)

    def test_a_tree_seed_is_rejected(self):
        # the trees draw from the forest's seed alone, and a saved forest drops the tree seed
        with pytest.raises(ValueError, match="^forest tree_params takes no rng_seed parameter"):
            ForestParams(TreeParams(CriterionSpec("gini"), rng_seed=5))
        forest = fit_forest(*_blobs(), ForestParams(TreeParams(CriterionSpec("gini")), n_trees=2,
                                                    rng_seed=5))
        assert forest_from_dict(forest_to_dict(forest)).params == forest.params

    def test_default_subsample_is_sqrt_d(self):
        X, y = _blobs(seed=19, d=9)
        forest = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("gini")),
                                               n_trees=2, rng_seed=2))
        assert forest.params.tree_params.feature_subsample is None  # input unchanged
        # trees saw 3 = ceil(sqrt(9)) features per split; indirectly: fit succeeded
        assert len(forest.trees) == 2


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), one_hot=st.integers(0, 4),
       tied=st.integers(0, 3), k=st.integers(2, 4), spec=st.sampled_from(SPECS),
       bootstrap=st.booleans(), every_feature=st.booleans(),
       max_depth=st.one_of(st.none(), st.integers(1, 8)), min_samples_leaf=st.integers(1, 4),
       n_trees=st.integers(1, 6))
def test_lockstep_forest_equals_a_depth_first_forest(seed, n, one_hot, tied, k, spec, bootstrap,
                                                     every_feature, max_depth,
                                                     min_samples_leaf, n_trees):
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 3, (n, one_hot + 1))  # one-hot columns of a few categories
    X = np.column_stack([(levels == v).astype(float) for v in range(3)]
                        + [np.round(rng.normal(0, 1, (n, tied)), 1)])  # tied continuous
    y = rng.integers(0, k, n)
    d = X.shape[1]
    params = ForestParams(TreeParams(spec, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                                     feature_subsample=d if every_feature else None),
                          n_trees=n_trees, bootstrap=bootstrap, rng_seed=seed)
    forest = forest_to_dict(fit_forest(X, y, params, n_classes=k))
    assert json.dumps(forest["trees"]) == json.dumps(grow_forest(X, y, k, params))


class TestPredictForest:
    def test_averages_leaf_distributions(self):
        forest = Forest(
            params=ForestParams(TreeParams(CriterionSpec("gini")), n_trees=2),
            n_classes=2,
            trees=[_leaf_tree([3, 2]), _leaf_tree([1, 4])],  # (0.6,0.4), (0.2,0.8)
        )
        cls, dist = predict_forest(forest, [0.0])
        assert np.allclose(dist, [0.4, 0.6])
        assert cls == 1

    def test_unanimous_one_hot(self):
        forest = Forest(
            params=ForestParams(TreeParams(CriterionSpec("gini")), n_trees=3),
            n_classes=2,
            trees=[_leaf_tree([5, 0])] * 3,
        )
        cls, dist = predict_forest(forest, [0.0])
        assert cls == 0
        assert np.array_equal(dist, [1.0, 0.0])

    def test_empty_forest_rejected(self):
        forest = Forest(params=ForestParams(TreeParams(CriterionSpec("gini"))),
                        n_classes=2, trees=[])
        with pytest.raises(ValueError):
            predict_forest(forest, [0.0])

    def test_short_vector_raises_value_error(self):
        X, y = _blobs(seed=31)
        forest = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("entropy")),
                                               n_trees=3, rng_seed=8))
        with pytest.raises(ValueError, match="needs an n x d input"):
            predict_forest(forest, X[0, :1])

    def test_too_few_columns_give_one_message_for_a_row_and_a_batch(self):
        # the first tree needs 2 columns, the second 3: the forest needs 3
        forest = Forest(params=ForestParams(TreeParams(CriterionSpec("gini")), n_trees=2),
                        n_classes=2, trees=[_stump(1), _stump(2)])
        assert forest.min_columns == 3
        message = "the model splits on feature 2, so it needs an n x d input with d >= 3"
        for predict, x in ((predict_forest, np.zeros(1)),
                           (predict_forest_batch, np.zeros((4, 1)))):
            shape = re.escape(str(x.shape))
            with pytest.raises(ValueError, match=f"^{message}; got shape {shape}$"):
                predict(forest, x)
        assert predict_forest_batch(forest, np.zeros((4, 3)))[0].tolist() == [0] * 4

    @pytest.mark.parametrize("x", [np.zeros((1, 8)), np.float64(1.0)], ids=["2-d", "0-d"])
    def test_row_that_is_not_1d_raises(self, x):
        X, y = _blobs(seed=31)
        forest = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("entropy")),
                                               n_trees=3, rng_seed=8))
        with pytest.raises(ValueError, match=re.escape(f"1-D feature vector; got shape {x.shape}")):
            predict_forest(forest, x)

    def test_single_row_equals_batch_row_exactly(self):
        # 9 trees with mixed leaves: a pairwise or compensated sum of the leaf
        # rows would round otherwise than the batch's tree-by-tree sum
        for n_trees, k, leaf, seed in ((3, 2, 1, 31), (9, 2, 7, 33), (9, 3, 7, 34)):
            X, y = _blobs(seed=seed)
            if k == 3:
                y = np.digitize(X[:, 0] + y, [0.0, 1.0])
            tp = TreeParams(CriterionSpec("entropy"), min_samples_leaf=leaf)
            forest = fit_forest(X, y, ForestParams(tp, n_trees=n_trees, rng_seed=8))
            assert forest.n_classes == k
            Q = np.vstack([np.random.default_rng(32).normal(0, 1, (40, X.shape[1])),
                           *(threshold_rows(t, X[0]) for t in forest.trees)])
            for batch, rows in single_rows(Q):
                classes, dists = predict_forest_batch(forest, batch)
                for i, x in enumerate(rows):
                    cls, dist = predict_forest(forest, x)
                    assert cls == classes[i]
                    assert dist.tobytes() == dists[i].tobytes()
        # classes 1 and 2 tie on average: the lowest index wins, as np.argmax does
        forest = Forest(params=ForestParams(TreeParams(CriterionSpec("gini")), n_trees=2),
                        n_classes=3, trees=[_leaf_tree([0, 3, 1]), _leaf_tree([0, 1, 3])])
        classes, dists = predict_forest_batch(forest, [[0.0]])
        cls, dist = predict_forest(forest, [0.0])
        assert cls == classes[0] == 1
        assert dist.tobytes() == dists[0].tobytes() == np.array([0.0, 0.5, 0.5]).tobytes()

    def test_averaged_distribution_on_simplex(self):
        X, y = _blobs(seed=23)
        forest = fit_forest(X, y, ForestParams(TreeParams(CriterionSpec("entropy")),
                                               n_trees=7, rng_seed=3))
        _, dists = predict_forest_batch(forest, X[:50])
        assert np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(dists >= 0.0)


class TestForestSerialization:
    def test_round_trip(self, tmp_path):
        X, y = _blobs(seed=29)
        forest = fit_forest(
            X, y,
            ForestParams(TreeParams(CriterionSpec("ne", lam=0.75)), n_trees=4, rng_seed=6),
        )
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert json.dumps(forest_to_dict(loaded)) == json.dumps(forest_to_dict(forest))
        a = predict_forest_batch(forest, X)[1]
        b = predict_forest_batch(loaded, X)[1]
        assert np.array_equal(a, b)

    def test_malformed_model_raises_value_error(self):
        forest = Forest(params=ForestParams(TreeParams(CriterionSpec("gini")), n_trees=2),
                        n_classes=2, trees=[_leaf_tree([3, 2]), _leaf_tree([1, 4])])
        data = forest_to_dict(forest)
        del data["params"]["bootstrap"]
        with pytest.raises(ValueError, match="forest params is missing key 'bootstrap'"):
            forest_from_dict(data)
        data = forest_to_dict(forest)
        data["trees"][1]["nodes"][0]["counts"] = [0, 0]
        with pytest.raises(ValueError, match="^tree 1: node 0: leaf counts"):
            forest_from_dict(data)
        data = forest_to_dict(forest)
        data["trees"][1] = tree_to_dict(_leaf_tree([1, 2, 3]))
        with pytest.raises(ValueError, match="^tree 1: K is 3, the forest's K is 2"):
            forest_from_dict(data)
