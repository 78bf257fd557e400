"""Tree learner: growth, halting, prediction, serialization, invariants."""

import json
import re

import numpy as np
import pytest

from robust_trees.criteria import ClassHistogram, CriterionSpec, impurity
from robust_trees.dataeng import Dataset
from robust_trees.errors import _labels
from robust_trees.forest import forest_from_dict
from robust_trees.noise import corrupt, uniform_matrix
from robust_trees.oracle import exhaustive_early_stop_check
from robust_trees.tree import (
    Tree,
    TreeParams,
    fit,
    load_tree,
    predict,
    predict_batch,
    save_tree,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)
from reference import grow

SEPARABLE_X = np.array([[0.0], [1.0], [2.0], [3.0]])
SEPARABLE_Y = np.array([0, 0, 1, 1])


def threshold_rows(tree: Tree, base: np.ndarray) -> np.ndarray:
    """One copy of ``base`` per split of ``tree`` that reaches the split with
    its threshold as the value there.  Each split on the way holds its
    threshold where the path turns left and the next float above it where it
    turns right, set from the root down: a deeper split on the same feature
    has its threshold on its ancestors' side, so the value it leaves keeps
    the path."""
    splits = np.flatnonzero(tree.feature >= 0)
    parent = np.full(tree.feature.size, -1)
    parent[tree.left[splits]] = parent[tree.right[splits]] = splits
    rows = np.tile(base, (splits.size, 1))
    for row, s in zip(rows, splits):
        path, node = [], s
        while node > 0:
            path.append(node)
            node = parent[node]
        for child in reversed(path):
            up = parent[child]
            thr = tree.threshold[up]
            row[tree.feature[up]] = thr if tree.left[up] == child else np.nextafter(thr, np.inf)
        row[tree.feature[s]] = tree.threshold[s]
    return rows


def single_rows(Q: np.ndarray) -> list[tuple]:
    """Q's rows in each form a single-row predict takes, each with the matrix
    whose batch prediction it must equal: contiguous rows, strided views,
    the rows of a Fortran-ordered copy, Python lists, and int rows."""
    wide = np.zeros((Q.shape[0], 2 * Q.shape[1]))
    wide[:, ::2] = Q
    ints = np.rint(2 * Q).astype(np.int64)
    return [(Q, list(Q)), (Q, list(wide[:, ::2])), (Q, list(np.asfortranarray(Q))),
            (Q, Q.tolist()), (ints, list(ints))]


class TestFit:
    def test_separable_stump(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        assert tree_stats(tree) == {"node_count": 3, "leaf_count": 2, "max_depth": 1}
        assert tree.threshold[0] == 1.5
        classes, _ = predict_batch(tree, SEPARABLE_X)
        assert (classes == SEPARABLE_Y).all()

    def test_pure_root_is_single_leaf(self):
        tree = fit(SEPARABLE_X, np.zeros(4, dtype=np.int64),
                   TreeParams(CriterionSpec("entropy")))
        assert tree_stats(tree) == {"node_count": 1, "leaf_count": 1, "max_depth": 0}

    def test_conservative_halts_where_entropy_splits(self):
        X = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 0, 1, 0, 1])
        mis = fit(X, y, TreeParams(CriterionSpec("misclassification")))
        ent = fit(X, y, TreeParams(CriterionSpec("entropy")))
        assert len(mis.feature) == 1
        assert len(ent.feature) == 3

    @pytest.mark.parametrize("lo, hi", [
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # adjacent: the midpoint rounds onto hi
        (1e308, 1.7e308),  # the midpoint overflows to inf
        (-1.7e308, -1e308),  # and to -inf
    ], ids=["adjacent", "huge", "huge-negative"])
    def test_threshold_between_adjacent_or_huge_values(self, lo, hi, tmp_path):
        # max_depth bounds the fit: a threshold that sends every row one way
        # would make the same node its own child, over and over
        X, y = np.array([[lo], [hi], [lo], [hi]]), np.array([0, 1, 0, 1])
        spec = CriterionSpec("gini")
        tree = fit(X, y, TreeParams(spec, max_depth=2))
        assert (tree.counts[tree.feature < 0].sum(axis=1) > 0).all()
        assert tree_stats(tree)["node_count"] == 3 and tree.threshold[0] == lo
        save_tree(tree, tmp_path / "tree.json")
        assert (predict_batch(load_tree(tmp_path / "tree.json"), X)[0] == y).all()
        assert exhaustive_early_stop_check(X, y, spec).witness == (0, lo)

    def test_max_depth_cap(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (200, 3))
        y = rng.integers(0, 2, 200)
        tree = fit(X, y, TreeParams(CriterionSpec("gini"), max_depth=2))
        assert tree_stats(tree)["max_depth"] <= 2

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (64, 2))
        y = rng.integers(0, 2, 64)
        tree = fit(X, y, TreeParams(CriterionSpec("gini"), min_samples_leaf=10))
        for nid in np.flatnonzero(tree.feature < 0):
            assert tree.counts[nid].sum() >= 10

    @pytest.mark.parametrize(
        "X,y,err",
        [
            (np.empty((0, 2)), np.empty(0, dtype=int), "nonempty"),
            (np.array([[np.nan], [1.0]]), np.array([0, 1]), "finite"),
            (np.array([[0.0], [1.0]]), np.array([0, 5]), "range"),
            (np.array([[0.0], [1.0]]), np.array([0, -1]), "nonnegative"),
        ],
    )
    def test_input_validation(self, X, y, err):
        kwargs = {"n_classes": 2} if err == "range" else {}
        with pytest.raises(ValueError, match=err):
            fit(X, y, TreeParams(CriterionSpec("gini")), **kwargs)

    def test_whole_float_labels_fit_as_their_integers(self):
        X, y = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 2, 1, 2])
        params = TreeParams(CriterionSpec("gini"))
        assert (json.dumps(tree_to_dict(fit(X, y.astype(float), params)))
                == json.dumps(tree_to_dict(fit(X, y, params))))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -1$"):
            TreeParams(CriterionSpec("gini"), rng_seed=-1)

    def test_fewer_than_two_classes_rejected(self):
        with pytest.raises(ValueError, match=r"^n_classes must be >= 2, got 1$"):
            fit(np.zeros((3, 1)), np.zeros(3, dtype=int), TreeParams(CriterionSpec("gini")),
                n_classes=1)

    def test_determinism_with_feature_subsampling(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (150, 6))
        y = (X[:, 0] + X[:, 3] > 0).astype(np.int64)
        params = TreeParams(CriterionSpec("gini"), feature_subsample=2, rng_seed=33)
        expected = json.dumps(grow(X, y, 2, params, np.random.default_rng(33)))
        for _ in range(2):
            assert json.dumps(tree_to_dict(fit(X, y, params))) == expected

    def test_equal_feature_values_never_split(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = fit(X, y, TreeParams(CriterionSpec("entropy")))
        assert len(tree.feature) == 1

    def test_twoing_learns_separable_data(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("twoing")))
        classes, _ = predict_batch(tree, SEPARABLE_X)
        assert (classes == SEPARABLE_Y).all()

    def test_ne_lambda_zero_learns_separable_data(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("ne", lam=0.0)))
        classes, _ = predict_batch(tree, SEPARABLE_X)
        assert (classes == SEPARABLE_Y).all()


class TestPredict:
    def test_single_leaf_distribution(self):
        tree = fit(np.zeros((4, 1)), np.array([0, 0, 0, 1]),
                   TreeParams(CriterionSpec("gini")))
        cls, dist = predict(tree, [123.0])
        assert cls == 0
        assert np.allclose(dist, [0.75, 0.25])

    def test_routing(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        assert predict(tree, [2.7])[0] == 1

    def test_threshold_routes_left(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        thr = tree.threshold[0]
        cls, _ = predict(tree, [thr])
        assert cls == 0

    def test_short_vector_raises_like_batch(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        tree = fit(X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        assert tree.min_columns == 2
        with pytest.raises(ValueError, match="needs an n x d input with d >= 2") as one:
            predict(tree, [1.0])
        with pytest.raises(ValueError) as batch:
            predict_batch(tree, [[1.0]])
        assert str(one.value).split(";")[0] == str(batch.value).split(";")[0]

    @pytest.mark.parametrize("x", [np.zeros((1, 2)), np.float64(1.0), [[1.0, 2.0]]],
                             ids=["2-d", "0-d", "nested-list"])
    def test_row_that_is_not_1d_raises(self, x):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        tree = fit(X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        message = re.escape(f"1-D feature vector; got shape {np.shape(x)}")
        with pytest.raises(ValueError, match=message):
            predict(tree, x)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (100, 4))
        for k in (2, 3):
            y = np.digitize(X[:, 1], [0.2, 0.9][:k - 1])
            y = np.where(rng.random(100) < 0.2, rng.integers(0, k, 100), y)  # a deeper tree
            tree = fit(X, y, TreeParams(CriterionSpec("entropy")))
            assert tree.n_classes == k
            Q = np.vstack([rng.normal(0, 1, (40, 4)), threshold_rows(tree, X[0])])
            for batch, rows in single_rows(Q):
                classes, dists = predict_batch(tree, batch)
                for i, x in enumerate(rows):
                    c, d = predict(tree, x)
                    assert c == classes[i]
                    assert d.tobytes() == dists[i].tobytes()


class TestStats:
    def test_shapes(self):
        single = fit(np.zeros((3, 1)), np.zeros(3, dtype=np.int64),
                     TreeParams(CriterionSpec("gini")))
        assert tree_stats(single) == {"node_count": 1, "leaf_count": 1, "max_depth": 0}
        stump = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("gini")))
        assert tree_stats(stump) == {"node_count": 3, "leaf_count": 2, "max_depth": 1}

    def test_perfect_depth_two_tree(self):
        # XOR-free two-feature grid that needs both features
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 2, 3])
        tree = fit(X, y, TreeParams(CriterionSpec("gini")))
        assert tree_stats(tree) == {"node_count": 7, "leaf_count": 4, "max_depth": 2}

    def test_level_walk_matches_a_recursive_walk(self):
        rng = np.random.default_rng(4)
        X = rng.normal(0, 1, (300, 3))
        tree = fit(X, rng.integers(0, 3, 300), TreeParams(CriterionSpec("entropy")))

        def walk(nid: int, depth: int) -> tuple[int, int, int]:  # nodes, leaves, depth
            if tree.feature[nid] < 0:
                return 1, 1, depth
            a, b = walk(tree.left[nid], depth + 1), walk(tree.right[nid], depth + 1)
            return a[0] + b[0] + 1, a[1] + b[1], max(a[2], b[2])

        nodes, leaves, depth = walk(0, 0)
        assert depth > 5
        assert tree_stats(tree) == {"node_count": nodes, "leaf_count": leaves, "max_depth": depth}


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (200, 5))
        y = (np.sin(X[:, 0]) + X[:, 2] > 0.3).astype(np.int64)
        tree = fit(X, y, TreeParams(CriterionSpec("gce", q=0.5)))
        path = tmp_path / "model.json"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert json.dumps(tree_to_dict(loaded)) == json.dumps(tree_to_dict(tree))
        cls_a, dist_a = predict_batch(tree, X)
        cls_b, dist_b = predict_batch(loaded, X)
        assert (cls_a == cls_b).all()
        assert np.array_equal(dist_a, dist_b)

    def test_schema_fields(self):
        tree = fit(SEPARABLE_X, SEPARABLE_Y, TreeParams(CriterionSpec("ne", lam=0.5)))
        data = tree_to_dict(tree)
        assert data["criterion"] == {"kind": "ne", "lambda": 0.5}
        assert data["K"] == 2
        kinds = {node["kind"] for node in data["nodes"]}
        assert kinds == {"split", "leaf"}
        split = data["nodes"][0]
        assert set(split) == {"kind", "feature", "threshold", "left", "right"}
        leaf = next(n for n in data["nodes"] if n["kind"] == "leaf")
        assert set(leaf) == {"kind", "counts"}


def _stump_model():
    return {"criterion": {"kind": "gini"}, "K": 2, "nodes": [
        {"kind": "split", "feature": 0, "threshold": 1.5, "left": 1, "right": 2},
        {"kind": "leaf", "counts": [2, 0]},
        {"kind": "leaf", "counts": [0, 2]},
    ]}


_MISSING = object()


class TestLoadValidation:
    def test_well_formed_model_loads(self):
        tree = tree_from_dict(_stump_model())
        assert (predict_batch(tree, SEPARABLE_X)[0] == SEPARABLE_Y).all()

    @pytest.mark.parametrize("node, key, value, message", [
        (0, "left", 0, "node 0: a split needs"),  # a self-loop would hang the walk
        (0, "right", 3, "node 0: a split needs"),
        (0, "feature", -1, "node 0: a split needs"),
        (1, "kind", "branch", "node 1: kind must be"),
        (0, "threshold", None, "node 0: a split needs"),  # JSON null would read as nan
        (0, "threshold", _MISSING, "node 0: missing key 'threshold'"),
        (2, "counts", [0, 2, 1], "node 2: counts has 3 entries, K is 2"),
        (1, "counts", [-1, 3], "node 1: leaf counts"),
        (2, "counts", [0, 0], "node 2: leaf counts"),
        (0, "counts", [1, 1], "node 0: unknown key 'counts'"),
        (1, "feature", 0, "node 1: unknown key 'feature'"),
        (2, "treshold", 1.5, "node 2: unknown key 'treshold'"),
    ])
    def test_malformed_node_is_named(self, node, key, value, message):
        data = _stump_model()
        if value is _MISSING:
            del data["nodes"][node][key]
        else:
            data["nodes"][node][key] = value
        with pytest.raises(ValueError, match=f"^{message}"):
            tree_from_dict(data)

    def test_an_unknown_node_key_is_named_in_a_forest(self):
        data = _stump_model()
        data["nodes"][2]["feature"] = 0
        forest = {"params": {"n_trees": 2, "bootstrap": True, "criterion": {"kind": "gini"}},
                  "K": 2, "trees": [_stump_model(), data]}
        with pytest.raises(ValueError, match="^tree 1: node 2: unknown key 'feature'$"):
            forest_from_dict(forest)

    @pytest.mark.parametrize("children, message", [
        ([(1, 1)], "node 1: the child of 2 splits"),  # one node as both children
        ([(1, 3), (2, 3)], "node 3: the child of 2 splits"),  # one node under two splits
        ([(1, 2)], "node 3: the child of 0 splits"),  # a node no split reaches
    ], ids=["same-children", "two-parents", "unreachable"])
    def test_a_node_is_the_child_of_one_split(self, children, message):
        nodes = [{"kind": "split", "feature": 0, "threshold": 0.5, "left": left, "right": right}
                 for left, right in children]
        nodes += [{"kind": "leaf", "counts": [1, 1]}] * (4 - len(nodes))
        data = {"criterion": {"kind": "gini"}, "K": 2, "nodes": nodes}
        with pytest.raises(ValueError, match=f"^{message}, where every node but the root"):
            tree_from_dict(data)
        forest = {"params": {"n_trees": 1, "bootstrap": True, "criterion": {"kind": "gini"}},
                  "K": 2, "trees": [data]}
        with pytest.raises(ValueError, match=f"^tree 0: {message}"):
            forest_from_dict(forest)

    def test_missing_top_level_key(self):
        data = _stump_model()
        del data["K"]
        with pytest.raises(ValueError, match="missing key 'K'"):
            tree_from_dict(data)


def _leaf_counts_by_node(tree: Tree):
    """counts per node id, internal nodes summed from their leaves."""
    memo = {}

    def rec(nid: int):
        if tree.feature[nid] < 0:
            memo[nid] = tree.counts[nid]
        else:
            memo[nid] = rec(tree.left[nid]) + rec(tree.right[nid])
        return memo[nid]

    rec(0)
    return memo


class TestTreeInvariants:
    @pytest.mark.parametrize(
        "spec",
        [CriterionSpec("gini"), CriterionSpec("entropy"),
         CriterionSpec("misclassification"), CriterionSpec("ne", lam=0.5)],
    )
    def test_each_split_strictly_reduces_weighted_risk(self, spec):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 4, (120, 4)).astype(float)
        y = rng.integers(0, 3, 120)
        tree = fit(X, y, TreeParams(spec))
        counts = _leaf_counts_by_node(tree)
        n = 120
        total_drop = 0.0
        for nid in np.flatnonzero(tree.feature >= 0):
            parent = impurity(spec, ClassHistogram(counts[nid]), n).value
            child = (
                impurity(spec, ClassHistogram(counts[tree.left[nid]]), n).value
                + impurity(spec, ClassHistogram(counts[tree.right[nid]]), n).value
            )
            assert parent - child > 0.0
            total_drop += parent - child
        root = impurity(spec, ClassHistogram(counts[0]), n).value
        leaf_sum = sum(
            impurity(spec, ClassHistogram(tree.counts[nid]), n).value
            for nid in np.flatnonzero(tree.feature < 0)
        )
        assert leaf_sum <= root + 1e-12
        assert leaf_sum == pytest.approx(root - total_drop, abs=1e-9)

    def test_leaves_partition_the_training_set(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (257, 3))
        y = rng.integers(0, 4, 257)
        tree = fit(X, y, TreeParams(CriterionSpec("entropy")))
        assert np.array_equal(tree.counts.sum(axis=0), np.bincount(y, minlength=4))


# each entry point that takes labels, with its own class count K = 2
LABEL_SITES = {
    "fit": lambda y: fit(np.zeros((len(y), 1)), y, TreeParams(CriterionSpec("gini")), n_classes=2),
    "Dataset": lambda y: Dataset(np.zeros((len(y), 1)), y, ("a", "b")),
    "corrupt": lambda y: corrupt(y, uniform_matrix(2, 0.1), 0),
    "from_labels": lambda y: ClassHistogram.from_labels(y, 2),
}


class TestLabelRule:
    """Every entry point reads labels by one rule: whole numbers in [0, K)."""

    @pytest.mark.parametrize("site", LABEL_SITES)
    @pytest.mark.parametrize("bad, shown", [(0.5, "0.5"), (np.nan, "nan"), (np.inf, "inf")])
    def test_a_label_that_is_not_whole_is_no_class(self, site, bad, shown):
        with pytest.raises(ValueError, match=f"^labels must be whole numbers, got {shown}$"):
            LABEL_SITES[site]([0, bad, 1])

    @pytest.mark.parametrize("site, source", [("fit", "n_classes"), ("Dataset", "class_names"),
                                              ("corrupt", "the transition matrix"),
                                              ("from_labels", "n_classes")])
    def test_a_label_of_k_or_more_names_the_source_of_k(self, site, source):
        with pytest.raises(ValueError, match=f"^labels out of range for {source}: 5 is not"
                                             " below 2$"):
            LABEL_SITES[site]([0, 1, 5])
        with pytest.raises(ValueError, match="^labels must be nonnegative class indices, got -1$"):
            LABEL_SITES[site]([0, 1, -1])

    @pytest.mark.parametrize("site", LABEL_SITES)
    def test_whole_numbers_of_any_type_pass(self, site):
        for y in ([0, 1, 1], [0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.uint8),
                  [False, True, True]):
            LABEL_SITES[site](y)

    def test_int64_labels_are_not_copied(self):
        y = np.array([0, 1, 1], dtype=np.int64)
        assert _labels(y, 2) is y
        assert Dataset(np.zeros((3, 1)), y, ("a", "b")).labels is y
        assert _labels(y.astype(np.int32)).dtype == np.int64
