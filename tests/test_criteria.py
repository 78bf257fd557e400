"""Closed-form impurities, risk reduction, optimal predictions, margin losses."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from robust_trees import criteria
from robust_trees.criteria import (
    KINDS,
    CdfSpec,
    ClassHistogram,
    CriterionSpec,
    counts_impurity,
    distribution_loss,
    impurity,
    lambda_from_mu,
    mu_from_lambda,
    optimal_constant_prediction,
    risk_reduction,
    split_scores,
    twoing_score,
)
from robust_trees.errors import EmptyHistogramError, PartitionError


def hist(*counts):
    return ClassHistogram(np.array(counts))


counts_vectors = st.lists(st.integers(0, 20), min_size=2, max_size=5).filter(
    lambda c: sum(c) > 0
)

ALL_SPECS = [
    CriterionSpec("gini"),
    CriterionSpec("entropy"),
    CriterionSpec("misclassification"),
    CriterionSpec("mae"),
    CriterionSpec("gce", q=0.0),
    CriterionSpec("gce", q=0.5),
    CriterionSpec("gce", q=1.0),
    CriterionSpec("gce", q=2.0),
    CriterionSpec("ne", lam=0.25),
    CriterionSpec("ne", lam=1.0),
]


class TestImpurityValues:
    def test_gini_symmetric_binary(self):
        out = impurity(CriterionSpec("gini"), hist(5, 5), 10)
        assert out.value == 0.5
        assert out.weight == 1.0

    def test_misclassification_definition(self):
        assert impurity(CriterionSpec("misclassification"), hist(3, 1), 4).value == 0.25

    def test_ne_interior_band(self):
        # min{0.3, 0.5 * sqrt((1 - 0.58) / 2)}; frozen from the scalar-risk oracle
        out = impurity(CriterionSpec("ne", lam=0.5), hist(7, 3), 10)
        assert out.value == pytest.approx(0.22912878474779202, abs=1e-15)

    def test_gce_half_norm(self):
        # (1 - sqrt(0.5)) / 0.5 = 2 - sqrt(2); frozen from the simplex-grid oracle
        out = impurity(CriterionSpec("gce", q=0.5), hist(5, 5), 10)
        assert out.value == pytest.approx(0.5857864376269049, abs=1e-15)

    def test_pure_node_is_zero(self):
        value = impurity(CriterionSpec("entropy"), hist(4, 0), 4).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_weight_is_node_share(self):
        out = impurity(CriterionSpec("gini"), hist(2, 2), 16)
        assert out.weight == 0.25
        assert out.value == 0.25 * 0.5

    def test_empty_histogram_rejected(self):
        with pytest.raises(EmptyHistogramError):
            impurity(CriterionSpec("gini"), hist(0, 0), 4)

    def test_dataset_size_smaller_than_node_rejected(self):
        with pytest.raises(ValueError):
            impurity(CriterionSpec("gini"), hist(3, 3), 4)

    def test_twoing_has_no_node_impurity(self):
        with pytest.raises(ValueError):
            impurity(CriterionSpec("twoing"), hist(1, 1), 2)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="gce", q=-0.5), dict(kind="ne", lam=-0.1), dict(kind="ne", lam=1.5),
         dict(kind="gce"), dict(kind="ne"), dict(kind="bogus"),
         dict(kind="gini", q=1.0), dict(kind="entropy", lam=0.5)],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CriterionSpec(**kwargs)


class TestRiskReduction:
    def test_perfect_split_removes_all_impurity(self):
        rr = risk_reduction(CriterionSpec("gini"), hist(4, 4), hist(4, 0), hist(0, 4), 8)
        assert rr == 0.5

    def test_misclassification_equality_case_is_exact_zero(self):
        rr = risk_reduction(
            CriterionSpec("misclassification"), hist(4, 2), hist(3, 1), hist(1, 1), 6
        )
        assert rr == 0.0

    def test_entropy_still_gains_on_same_split(self):
        rr = risk_reduction(CriterionSpec("entropy"), hist(4, 2), hist(3, 1), hist(1, 1), 6)
        assert rr == pytest.approx(0.030575011695625515, abs=1e-15)
        assert rr > 0

    def test_children_must_partition_parent(self):
        with pytest.raises(PartitionError):
            risk_reduction(CriterionSpec("gini"), hist(4, 2), hist(3, 1), hist(2, 1), 6)

    def test_empty_child_rejected(self):
        with pytest.raises(EmptyHistogramError):
            risk_reduction(CriterionSpec("gini"), hist(4, 2), hist(4, 2), hist(0, 0), 6)

    @given(
        counts=counts_vectors,
        fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
        spec=st.sampled_from(ALL_SPECS + [CriterionSpec("ne", lam=0.0)]),
    )
    def test_nonnegative_for_every_criterion(self, counts, fracs, spec):
        parent = np.array(counts)
        fracs = (fracs * 3)[: len(counts)]
        left = np.minimum(parent, np.round(np.array(fracs) * parent)).astype(np.int64)
        right = parent - left
        if left.sum() == 0 or right.sum() == 0:
            return
        n = int(parent.sum())
        rr = risk_reduction(
            spec, ClassHistogram(parent), ClassHistogram(left), ClassHistogram(right), n,
        )
        assert rr >= -1e-12
        # Independent route: the weighted impurities, one node at a time.  Both
        # orders of the children are the same split.
        direct = (impurity(spec, ClassHistogram(parent), n).value
                  - impurity(spec, ClassHistogram(left), n).value
                  - impurity(spec, ClassHistogram(right), n).value)
        scores = split_scores(spec, parent, np.stack([left, right]), n)
        assert np.allclose(scores, direct, rtol=0.0, atol=1e-12)


class TestTwoing:
    def test_zero_iff_equal_distributions(self):
        assert twoing_score(hist(2, 2), hist(4, 4), 12) == 0.0
        assert twoing_score(hist(4, 0), hist(0, 4), 8) == pytest.approx(0.25)

    def test_matches_closed_form(self):
        # (W_L W_R / 4) (sum |p_L - p_R|)^2 with W_L = 0.5, W_R = 0.5
        got = twoing_score(hist(3, 1), hist(1, 3), 8)
        assert got == pytest.approx(0.25 * 0.25 * 1.0 * 1.0)


class TestOptimalPrediction:
    def test_conservative_returns_one_hot(self):
        assert np.array_equal(
            optimal_constant_prediction(CriterionSpec("misclassification"), hist(7, 3)),
            [1.0, 0.0],
        )

    def test_entropy_returns_p(self):
        assert np.allclose(
            optimal_constant_prediction(CriterionSpec("entropy"), hist(7, 3)), [0.7, 0.3]
        )

    def test_gce_power_normalization(self):
        got = optimal_constant_prediction(CriterionSpec("gce", q=0.5), hist(8, 2))
        assert np.allclose(got, [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)

    def test_argmax_tie_takes_lowest_index(self):
        got = optimal_constant_prediction(CriterionSpec("mae"), hist(3, 3, 1))
        assert np.array_equal(got, [1.0, 0.0, 0.0])

    def test_empty_histogram_rejected(self):
        with pytest.raises(EmptyHistogramError):
            optimal_constant_prediction(CriterionSpec("gini"), hist(0, 0))


class TestInvariants:
    @given(counts=counts_vectors, spec=st.sampled_from(ALL_SPECS))
    def test_permutation_symmetry(self, counts, spec):
        base = impurity(spec, ClassHistogram(np.array(counts)), sum(counts)).value
        rng = np.random.default_rng(sum(counts))
        perm = rng.permutation(len(counts))
        permuted = impurity(
            spec, ClassHistogram(np.array(counts)[perm]), sum(counts)
        ).value
        assert permuted == pytest.approx(base, abs=1e-12)

    @given(counts=counts_vectors, spec=st.sampled_from(ALL_SPECS))
    def test_purity_zero_iff_single_class(self, counts, spec):
        value = impurity(spec, ClassHistogram(np.array(counts)), sum(counts)).value
        if np.count_nonzero(counts) == 1:
            assert value == pytest.approx(0.0, abs=1e-15)
        else:
            assert value > 0.0

    @given(counts=counts_vectors)
    def test_conservative_identity_exact(self, counts):
        h = ClassHistogram(np.array(counts))
        total = h.total
        reference = (total / total) * (1.0 - h.counts.max() / total)
        assert impurity(CriterionSpec("misclassification"), h, total).value == reference
        assert impurity(CriterionSpec("mae"), h, total).value == 2.0 * reference
        assert impurity(CriterionSpec("gce", q=1.0), h, total).value == reference
        assert impurity(CriterionSpec("gce", q=2.0), h, total).value == reference / 2.0

    @given(counts=st.lists(st.integers(0, 20), min_size=2, max_size=2).filter(
        lambda c: sum(c) > 0))
    def test_ne_lambda_one_equals_misclassification_in_binary(self, counts):
        h = ClassHistogram(np.array(counts))
        ne = impurity(CriterionSpec("ne", lam=1.0), h, h.total).value
        mis = impurity(CriterionSpec("misclassification"), h, h.total).value
        assert ne == pytest.approx(mis, abs=1e-12)

    @pytest.mark.parametrize("counts", [(2, 8), (3, 7), (5, 5), (4, 6), (8, 2)])
    def test_ne_small_lambda_is_scaled_root_gini(self, counts):
        # p in [0.2, 0.8]: the sqrt branch of the min is active for tiny lambda
        h = hist(*counts)
        lam = 0.01
        p = h.probabilities()
        expected = lam * math.sqrt((1.0 - float(np.square(p).sum())) / 2.0)
        assert impurity(CriterionSpec("ne", lam=lam), h, h.total).value == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_multiclass_ne_branches_coincide_at_uniform_for_lambda_one(self, k):
        p = np.full(k, 1.0 / k)
        mis_branch = 1.0 - p.max()
        root_branch = math.sqrt((1.0 - float(np.square(p).sum())) * (k - 1) / k)
        assert mis_branch == pytest.approx(root_branch, abs=1e-12)
        assert mis_branch == pytest.approx((k - 1) / k, abs=1e-12)

    def test_ne_lambda_zero_limit_ranks_by_root_gini(self):
        spec = CriterionSpec("ne", lam=0.0)
        p = hist(6, 4)
        expected = math.sqrt((1.0 - (0.6 ** 2 + 0.4 ** 2)) / 2.0)
        assert impurity(spec, p, 10).value == pytest.approx(expected, abs=1e-15)
        assert impurity(spec, hist(5, 0), 5).value == 0.0

    @given(
        spec=st.sampled_from(
            [CriterionSpec("gini"), CriterionSpec("entropy"), CriterionSpec("gce", q=0.5)]
        ),
        a=counts_vectors,
        alpha=st.floats(0.01, 0.99),
        data=st.data(),
    )
    def test_concavity_on_sampled_mixtures(self, spec, a, alpha, data):
        b = data.draw(
            st.lists(st.integers(0, 20), min_size=len(a), max_size=len(a)).filter(
                lambda c: sum(c) > 0
            )
        )
        p1 = np.array(a) / sum(a)
        p2 = np.array(b) / sum(b)
        mix = alpha * p1 + (1 - alpha) * p2
        lhs = float(counts_impurity(spec, mix))
        rhs = alpha * float(counts_impurity(spec, p1)) + (1 - alpha) * float(
            counts_impurity(spec, p2)
        )
        assert lhs >= rhs - 1e-12


class TestDistributionLosses:
    def test_logistic_midpoint(self):
        assert distribution_loss(CdfSpec("logistic"), 0.0) == 0.5

    def test_ramp_saturates(self):
        assert distribution_loss(CdfSpec("uniform"), 3.0) == 0.0
        assert distribution_loss(CdfSpec("uniform"), -3.0) == 1.0
        assert distribution_loss(CdfSpec("uniform"), 0.0) == 0.5

    def test_negexp_capped_at_one(self):
        for mu in (0.0, 0.5, 2.0):
            assert distribution_loss(CdfSpec("shifted_negexp", mu=mu), -10.0) == 1.0
        # cap applies before exponentiation, so huge negative margins are safe
        assert distribution_loss(CdfSpec("shifted_negexp", mu=1.0), -1e9) == 1.0

    def test_negexp_at_zero_margin(self):
        loss = distribution_loss(CdfSpec("shifted_negexp", mu=math.log(2.0)), 0.0)
        assert loss == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("cdf", [CdfSpec("bernoulli"), CdfSpec("logistic"), CdfSpec("uniform"),
                                     CdfSpec("shifted_negexp", mu=0.7)], ids=lambda c: c.kind)
    def test_infinite_margins_are_valid_and_a_nan_one_is_not(self, cdf):
        assert distribution_loss(cdf, math.inf) == 0.0
        assert distribution_loss(cdf, -math.inf) == 1.0
        # max(0.0, nan) is 0.0, so the ramp alone would call a nan margin a zero loss
        with pytest.raises(ValueError, match=r"^margin must lie in \[-inf, inf\], got nan$"):
            distribution_loss(cdf, math.nan)

    def test_bernoulli_is_01_loss(self):
        assert distribution_loss(CdfSpec("bernoulli"), 1.0) == 0.0
        assert distribution_loss(CdfSpec("bernoulli"), -1.0) == 1.0
        assert distribution_loss(CdfSpec("bernoulli"), 0.0) == 0.5

    @given(
        cdf=st.sampled_from(
            [CdfSpec("bernoulli"), CdfSpec("logistic"), CdfSpec("uniform"),
             CdfSpec("shifted_negexp", mu=0.7)]
        ),
        z1=st.floats(-50, 50),
        z2=st.floats(-50, 50),
    )
    def test_losses_bounded_and_non_increasing(self, cdf, z1, z2):
        lo, hi = sorted((z1, z2))
        l_lo, l_hi = distribution_loss(cdf, lo), distribution_loss(cdf, hi)
        assert 0.0 <= l_hi <= l_lo <= 1.0


class TestLambdaMuMap:
    def test_endpoints(self):
        assert lambda_from_mu(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
        assert mu_from_lambda(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert lambda_from_mu(2.0) == pytest.approx(0.2706705664732254, abs=1e-15)

    @given(st.floats(1e-6, 1.0))
    def test_round_trip(self, lam):
        assert lambda_from_mu(mu_from_lambda(lam)) == pytest.approx(lam, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mu_from_lambda(0.0)
        with pytest.raises(ValueError):
            mu_from_lambda(1.5)
        with pytest.raises(ValueError):
            lambda_from_mu(-0.1)

    @pytest.mark.parametrize("value, message", [
        (math.nan, r"must lie in \[0, inf\), got nan"),
        (math.inf, r"must lie in \[0, inf\), got inf"),
        ("1", "must be a real number, got str"),
        (None, "must be a real number, got NoneType"),
    ], ids=["nan", "inf", "string", "none"])
    def test_mu_must_be_a_finite_real(self, value, message):
        with pytest.raises(ValueError, match=f"^mu {message}$"):
            lambda_from_mu(value)
        with pytest.raises(ValueError, match=f"^mu {message}$"):
            CdfSpec("shifted_negexp", mu=value)

    @pytest.mark.parametrize("value, message", [
        (math.nan, r"must lie in \(0, 1\], got nan"), ("1", "must be a real number, got str")],
        ids=["nan", "string"])
    def test_lambda_must_be_a_finite_real(self, value, message):
        with pytest.raises(ValueError, match=f"^lambda {message}$"):
            mu_from_lambda(value)


# ---------------------------------------------------------------------------
# Class-major scoring against the class-last formulas, bit for bit.
# ---------------------------------------------------------------------------

def reference_counts_impurity(spec, counts):
    """The class-last ``counts_impurity``: every class sum and maximum is a
    reduction over the short last axis."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts @ np.ones(counts.shape[-1], dtype=counts.dtype)
    p = counts / total[..., None]
    kind = spec.kind
    if kind == "gini":
        return 1.0 - np.square(p).sum(axis=-1)
    if kind == "entropy" or (kind == "gce" and spec.q == 0.0):
        plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return -plogp.sum(axis=-1)
    if kind == "misclassification":
        return 1.0 - p.max(axis=-1)
    if kind == "mae":
        return 2.0 * (1.0 - p.max(axis=-1))
    if kind == "gce":
        if spec.q >= 1.0:
            return (1.0 - p.max(axis=-1)) / spec.q
        r = 1.0 / (1.0 - spec.q)
        norm = np.power(np.power(p, r).sum(axis=-1), 1.0 / r)
        return (1.0 - norm) / spec.q
    k = counts.shape[-1]  # ne
    gini = np.maximum(1.0 - np.square(p).sum(axis=-1), 0.0)
    root = np.sqrt(gini * (k - 1) / k)
    if spec.lam == 0.0:
        return root
    return np.minimum(1.0 - p.max(axis=-1), spec.lam * root)


def reference_split_scores(spec, parent, left, dataset_size):
    """The class-last ``split_scores``."""
    right = parent - left
    if spec.is_conservative:
        gain = left.max(axis=-1) + right.max(axis=-1) - parent.max(axis=-1)
        return spec.conservative_constant() * gain / dataset_size
    n = parent.sum(axis=-1)
    n_left = left @ np.ones(left.shape[-1], dtype=left.dtype)
    n_right = n - n_left
    if spec.kind == "twoing":
        gap = np.abs(left / n_left[..., None] - right / n_right[..., None]).sum(axis=-1)
        return (n_left / dataset_size) * (n_right / dataset_size) / 4.0 * np.square(gap)
    return n / dataset_size * reference_counts_impurity(spec, parent) - (
        n_left / dataset_size * reference_counts_impurity(spec, left)
        + n_right / dataset_size * reference_counts_impurity(spec, right)
    )


SCORED_SPECS = [CriterionSpec(kind) for kind in KINDS if kind not in ("gce", "ne")] + [
    CriterionSpec("gce", q=q) for q in (0.0, 0.7, 2.0)] + [
    CriterionSpec("ne", lam=lam) for lam in (0.0, 0.5, 1.0)]


def class_major(counts):
    """``counts`` as the ``.T`` view of class-major memory."""
    return np.ascontiguousarray(counts.T).T


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestClassMajorScoring:
    """Scores on class rows equal the class-last formulas bit for bit, on
    both sides of the 8-class switch in the order of the class sums."""

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 12), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_class_last(self, k, m, seed):
        rng = np.random.default_rng(seed)
        parent = rng.integers(0, 30, k) * (rng.random(k) < 0.8)  # zero classes too
        left = rng.integers(0, parent + 1, (m, k))
        left = left[(left.sum(axis=1) > 0) & (left.sum(axis=1) < parent.sum())]
        assume(left.shape[0] > 0)
        dataset_size = int(parent.sum()) + int(rng.integers(0, 50))
        for spec in SCORED_SPECS:
            want = reference_split_scores(spec, parent, left, dataset_size)
            for layout in (left, class_major(left)):
                assert same_bits(split_scores(spec, parent, layout, dataset_size), want), spec
            if spec.kind == "twoing":
                continue
            want = reference_counts_impurity(spec, left)
            for layout in (left, class_major(left)):
                assert same_bits(counts_impurity(spec, layout), want), spec
            assert same_bits(counts_impurity(spec, parent),
                             reference_counts_impurity(spec, parent)), spec

    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("spec", SCORED_SPECS, ids=lambda s: s.label())
    def test_result_shapes(self, spec, k):
        rng = np.random.default_rng(k)
        parent = rng.integers(5, 10, k)
        left = rng.integers(1, 5, (2, 3, k))
        for counts in (left[0, 0], left[0], left, class_major(left)):
            # the reference sums in class-last order on contiguous class-last input only
            contiguous = np.ascontiguousarray(counts)
            got = split_scores(spec, parent, counts, 100)
            assert np.shape(got) == counts.shape[:-1]
            assert same_bits(got, reference_split_scores(spec, parent, contiguous, 100))
            if spec.kind != "twoing":
                got = counts_impurity(spec, counts)
                assert np.shape(got) == counts.shape[:-1]
                assert same_bits(got, reference_counts_impurity(spec, contiguous))


# ---------------------------------------------------------------------------
# Scoring in blocks: the same bits, in bounded memory.
# ---------------------------------------------------------------------------

BLOCK_SPECS = [CriterionSpec(kind) for kind in KINDS if kind not in ("gce", "ne")] + [
    CriterionSpec("gce", q=q) for q in (0.0, 0.7, 1.5)] + [
    CriterionSpec("ne", lam=lam) for lam in (0.0, 0.5, 1.0)]


def block_counts(k):
    """One block, one block and one candidate, two blocks and 17 candidates."""
    block = criteria._block_size(k)
    return [block, block + 1, 2 * block + 17]


def split_lefts(rng, parents, node):
    """One nonempty proper left count row per candidate, under ``parents[node]``."""
    below = parents[node]
    left = rng.integers(0, below + 1)
    empty = (left.sum(axis=1) == 0) | (left.sum(axis=1) == below.sum(axis=1))
    left[empty] = 0
    left[empty, 0] = 1  # every parent holds two or more of class 0
    return left


def traced_peak(fn) -> int:
    """The most bytes ``tracemalloc`` saw allocated at once while ``fn`` ran;
    numpy reports its buffers to it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    """Candidates past one block are scored a block at a time; every score
    depends only on its own count row, so a block's start changes no bit."""

    def test_a_block_holds_96_kib_per_temporary(self):
        assert criteria._block_size(3) == 4096
        for k in (2, 3, 9, 12288, 20000):
            block = criteria._block_size(k)
            assert block >= 1 and (block == 1 or 8 * k * block <= 96 * 1024)
            assert 8 * k * (block + 1) > 96 * 1024

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_one_parent_matches_class_last(self, k):
        rng = np.random.default_rng(k)
        parent = rng.integers(2, 60, k) * (rng.random(k) < 0.8)  # zero classes too
        parent[0] = max(parent[0], 2)
        for m in block_counts(k):
            left = split_lefts(rng, parent[None, :], np.zeros(m, dtype=np.intp))
            dataset_size = int(parent.sum()) + 7
            for spec in BLOCK_SPECS:
                want = reference_split_scores(spec, parent, left, dataset_size)
                for layout in (left, class_major(left), class_major(left.astype(np.int32))):
                    got = split_scores(spec, parent, layout, dataset_size)
                    assert same_bits(got, want), (spec, m)

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_gathered_parents_match_per_candidate_calls(self, k):
        rng = np.random.default_rng(10 + k)
        parents = rng.integers(2, 60, (5, k))
        for m in block_counts(k):
            node = rng.integers(0, 5, m)
            left = split_lefts(rng, parents, node)
            block = criteria._block_size(k)
            # both sides of every block's start, and a spread of the rest
            edges = [i for start in range(block, m, block) for i in range(start - 2, start + 2)]
            picked = sorted({i for i in edges if i < m} | set(range(0, m, 97)) | {m - 1})
            for spec in BLOCK_SPECS:
                batched = split_scores(spec, parents, class_major(left), 500, node=node)
                assert same_bits(batched, reference_split_scores(spec, parents[node], left, 500))
                for i in picked:
                    alone = split_scores(spec, parents[node[i]], left[i], 500)
                    assert same_bits(batched[i], alone), (spec, m, i)

    @pytest.mark.parametrize("spec", [CriterionSpec("entropy"), CriterionSpec("ne", lam=1.0),
                                      CriterionSpec("gce", q=0.7), CriterionSpec("twoing"),
                                      CriterionSpec("misclassification")],
                             ids=lambda s: s.label())
    def test_peak_memory_of_a_large_call(self, spec):
        # 48,000 candidates at K = 3, as a 6,000-row root of 8 continuous
        # columns gives; scored whole, the temporaries peak at 5.1-5.5 MB
        rng = np.random.default_rng(0)
        parent = np.array([2100, 1900, 2000])
        left = class_major(split_lefts(rng, parent[None, :], np.zeros(48_000, dtype=np.intp)))
        split_scores(spec, parent, left, 6000)
        assert traced_peak(lambda: split_scores(spec, parent, left, 6000)) < 1.5e6
