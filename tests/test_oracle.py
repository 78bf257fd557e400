"""Brute-force oracles against the closed forms they are meant to check."""

import math

import numpy as np
import pytest

from robust_trees.criteria import (
    ClassHistogram,
    CriterionSpec,
    impurity,
    mu_from_lambda,
    optimal_constant_prediction,
)
from robust_trees.tree import TreeParams, fit
from robust_trees.oracle import (
    GridSpec,
    brute_force_impurity,
    brute_force_minimizer,
    exhaustive_early_stop_check,
)
from robust_trees.verify import early_stop_instances

SIMPLEX_PAIRS = [
    ("mse", CriterionSpec("gini"), {}),
    ("ce", CriterionSpec("entropy"), {}),
    ("01", CriterionSpec("misclassification"), {}),
    ("mae", CriterionSpec("mae"), {}),
    ("gce", CriterionSpec("gce", q=0.0), {"q": 0.0}),
    ("gce", CriterionSpec("gce", q=0.5), {"q": 0.5}),
    ("gce", CriterionSpec("gce", q=2.0), {"q": 2.0}),
]


def hist(*counts):
    return ClassHistogram(np.array(counts))


class TestBruteForceImpurity:
    @pytest.mark.parametrize("mu", [None, -0.5, math.nan, math.inf])
    def test_ne_takes_mu_as_cdfspec_does(self, mu):
        with pytest.raises(ValueError, match="^mu must "):  # nan fails no plain comparison
            brute_force_impurity("ne", hist(3, 1), mu=mu)

    def test_01_attains_vertex_minimum(self):
        assert brute_force_impurity("01", hist(3, 1)) == pytest.approx(0.25, abs=1e-12)

    def test_mae_doubles_it(self):
        assert brute_force_impurity("mae", hist(3, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_ne_balanced_at_lambda_one(self):
        got = brute_force_impurity("ne", hist(5, 5), mu=math.log(2.0))
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_ne_limit_wins_at_zero_shift(self):
        # mu = 0: interior risk 2 sqrt(p+ p-) ~ 0.917 loses to the yhat -> +inf
        # limit p- = 0.3
        got = brute_force_impurity("ne", hist(7, 3), mu=0.0)
        assert got == pytest.approx(0.3, abs=1e-12)

    def test_ne_interior_wins_at_large_shift(self):
        # mu = 10: the capped band allows near-zero risk 2 e^{-mu} sqrt(p+ p-)
        got = brute_force_impurity("ne", hist(7, 3), mu=10.0)
        assert got == pytest.approx(2.0 * math.exp(-10.0) * math.sqrt(0.21), rel=1e-9)

    def test_weighting(self):
        full = brute_force_impurity("mse", hist(2, 2))
        half = brute_force_impurity("mse", hist(2, 2), dataset_size=8)
        assert half == pytest.approx(full / 2.0, abs=1e-12)

    def test_ne_requires_binary(self):
        with pytest.raises(ValueError):
            brute_force_impurity("ne", hist(1, 1, 1), mu=1.0)

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            brute_force_impurity("hinge", hist(1, 1))

    @pytest.mark.parametrize("loss,spec,kw", SIMPLEX_PAIRS)
    def test_matches_closed_form_on_random_histograms(self, loss, spec, kw):
        rng = np.random.default_rng(42)
        for _ in range(15):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 21, k)
            if counts.sum() == 0:
                counts[0] = 1
            h = ClassHistogram(counts)
            closed = impurity(spec, h, h.total).value
            oracle = brute_force_impurity(loss, h, **kw)
            assert abs(closed - oracle) <= 1e-4

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_ne_matches_closed_form(self, lam):
        rng = np.random.default_rng(7)
        for _ in range(25):
            counts = rng.integers(0, 21, 2)
            if counts.sum() == 0:
                counts[0] = 1
            h = ClassHistogram(counts)
            closed = impurity(CriterionSpec("ne", lam=lam), h, h.total).value
            oracle = brute_force_impurity("ne", h, mu=mu_from_lambda(lam))
            assert abs(closed - oracle) <= 1e-8


class TestMinimizerLocation:
    @pytest.mark.parametrize(
        "loss,spec,kw",
        [(l, s, kw) for l, s, kw in SIMPLEX_PAIRS if l != "gce" or kw["q"] != 0.0],
    )
    def test_matches_optimal_prediction_within_grid_resolution(self, loss, spec, kw):
        rng = np.random.default_rng(11)
        step = GridSpec().simplex_step
        for _ in range(8):
            k = int(rng.integers(2, 5))
            counts = rng.integers(1, 21, k) + np.arange(k) * 21  # distinct counts
            h = ClassHistogram(counts)
            mini = brute_force_minimizer(loss, h, **kw)
            opt = optimal_constant_prediction(spec, h)
            assert np.abs(mini - opt).max() <= step + 1e-12

    def test_ne_has_no_vector_minimizer(self):
        with pytest.raises(ValueError):
            brute_force_minimizer("ne", hist(1, 1))


class TestEarlyStopOracle:
    def test_canonical_halting_instance(self):
        X = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 0, 1, 0, 1])
        report = exhaustive_early_stop_check(X, y, CriterionSpec("misclassification"))
        assert report.halts and report.majority_condition
        assert report.best_value == 0.0

    def test_entropy_disagrees_on_same_instance(self):
        X = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 0, 1, 0, 1])
        report = exhaustive_early_stop_check(X, y, CriterionSpec("entropy"))
        assert not report.halts
        assert report.best_value == pytest.approx(0.030575011695625515, abs=1e-15)
        assert report.witness == (0, 0.5)

    def test_pure_node_halts_for_every_criterion(self):
        X = np.arange(6, dtype=float)[:, None]
        y = np.zeros(6, dtype=np.int64)
        for spec in (CriterionSpec("gini"), CriterionSpec("misclassification"),
                     CriterionSpec("twoing"), CriterionSpec("ne", lam=0.5)):
            assert exhaustive_early_stop_check(X, y, spec).halts

    def test_no_candidate_split_halts(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        report = exhaustive_early_stop_check(X, y, CriterionSpec("entropy"))
        assert report.halts and report.witness is None

    @pytest.mark.parametrize(
        "spec",
        [CriterionSpec("gini"), CriterionSpec("entropy"), CriterionSpec("misclassification"),
         CriterionSpec("mae"), CriterionSpec("gce", q=0.5), CriterionSpec("gce", q=2.0),
         CriterionSpec("ne", lam=0.0), CriterionSpec("ne", lam=0.5), CriterionSpec("ne", lam=1.0),
         CriterionSpec("twoing")],
        ids=lambda spec: spec.label(),
    )
    def test_tree_root_split_is_the_oracle_witness(self, spec):
        for seed in range(4):
            for i, (X, y) in enumerate(early_stop_instances(seed)):
                tree = fit(X, y, TreeParams(spec))
                report = exhaustive_early_stop_check(X, y, spec)
                assert (len(tree.feature) == 1) == report.halts, f"seed {seed}, instance {i}"
                if report.halts:
                    continue
                root = (int(tree.feature[0]), float(tree.threshold[0]))
                assert root == report.witness, f"seed {seed}, instance {i}"

    def test_refuses_large_instances(self):
        X = np.zeros((501, 1))
        y = np.zeros(501, dtype=np.int64)
        with pytest.raises(ValueError):
            exhaustive_early_stop_check(X, y, CriterionSpec("gini"))
