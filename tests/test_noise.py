"""Corruption models, transition matrices, and the majority-preservation bound."""

import math

import numpy as np
import pytest

from robust_trees.dataeng import DataFormatError, Dataset, load_csv_features
from robust_trees.noise import (
    NoiseSpec,
    TransitionMatrix,
    binary_cc_matrix,
    corrupt,
    hoeffding_bound,
    mahalanobis_matrix,
    majority_preservation_mc,
    round_class_counts,
    uniform_matrix,
)
from synth import gaussian_blobs


class TestUniformMatrix:
    def test_zero_rate_is_identity(self):
        assert np.array_equal(uniform_matrix(2, 0.0).eta, np.eye(2))

    def test_binary_stated_form(self):
        assert np.allclose(uniform_matrix(2, 0.4).eta, [[0.6, 0.4], [0.4, 0.6]])

    def test_ten_class_rates(self):
        m = uniform_matrix(10, 0.3).eta
        assert np.allclose(np.diag(m), 0.7)
        off = m[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.3 / 9)

    @pytest.mark.parametrize("k,eta", [(2, 0.5), (2, -0.1), (10, 0.9), (3, 2 / 3)])
    def test_rate_domain(self, k, eta):
        with pytest.raises(ValueError):
            uniform_matrix(k, eta)

    def test_the_bound_names_k(self):
        with pytest.raises(ValueError) as exc:
            uniform_matrix(4, 0.8)
        assert str(exc.value) == "uniform eta for K=4 must lie in [0, 0.75), got 0.8"

    def test_rows_sum_to_one(self):
        for k in (2, 3, 7):
            m = uniform_matrix(k, 0.25).eta
            assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9)


class TestTransitionMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.9, 0.2], [0.5, 0.5]]))  # row sum 1.1
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.0, 1.0]]))  # out of [0,1]

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_nan_rejected(self, row, tmp_path):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            TransitionMatrix(np.array([row, [0.0, 1.0]]))
        path = tmp_path / "matrix.csv"
        path.write_text(",".join(map(str, row)) + "\n0,1\n")
        # a matrix file is read by the one feature-CSV parser, which names the line
        with pytest.raises(DataFormatError, match=r":1: non-finite feature value 'nan'$"):
            load_csv_features(path, header=False)

    def test_diagonal_dominance_flag(self):
        assert uniform_matrix(4, 0.2).diagonally_dominant()
        flat = TransitionMatrix(np.full((2, 2), 0.5))
        assert not flat.diagonally_dominant()

    def test_csv_round_trip(self, tmp_path):
        m = mahalanobis_matrix(*gaussian_blobs(60, [[0, 0], [5, 0], [0, 7]], seed=3))
        path = tmp_path / "matrix.csv"
        m.to_csv(path)
        again = TransitionMatrix(load_csv_features(path, header=False))
        assert np.array_equal(again.eta, m.eta)


class TestCorrupt:
    def test_identity_is_noop(self):
        y = np.random.default_rng(0).integers(0, 5, 1000)
        assert np.array_equal(corrupt(y, uniform_matrix(5, 0.0), 3), y)

    def test_deterministic_given_seed(self):
        y = np.random.default_rng(1).integers(0, 3, 500)
        m = uniform_matrix(3, 0.3)
        assert np.array_equal(corrupt(y, m, 11), corrupt(y, m, 11))
        assert not np.array_equal(corrupt(y, m, 11), corrupt(y, m, 12))

    def test_binary_flip_fraction_within_3_sigma(self):
        n = 100_000
        y = np.zeros(n, dtype=np.int64)
        y[::2] = 1
        noisy = corrupt(y, uniform_matrix(2, 0.4), 42)
        flip = float((noisy != y).mean())
        assert abs(flip - 0.4) <= 3.0 * math.sqrt(0.4 * 0.6 / n)

    def test_class_conditional_rates_within_3_sigma(self):
        n = 100_000
        y = np.zeros(n, dtype=np.int64)
        y[::2] = 1
        noisy = corrupt(y, binary_cc_matrix(0.1, 0.3), 7)
        pos = y == 0
        flip_pos = float((noisy[pos] != 0).mean())
        flip_neg = float((noisy[~pos] != 1).mean())
        assert abs(flip_pos - 0.1) <= 3.0 * math.sqrt(0.1 * 0.9 / pos.sum())
        assert abs(flip_neg - 0.3) <= 3.0 * math.sqrt(0.3 * 0.7 / (~pos).sum())

    def test_noisy_histogram_converges_to_expectation(self):
        n = 100_000
        k = 6
        eta = 0.35
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(k))
        counts = round_class_counts(p, n)
        labels = np.repeat(np.arange(k), counts)
        noisy = corrupt(labels, uniform_matrix(k, eta), 9)
        observed = np.bincount(noisy, minlength=k) / n
        expected = (1.0 - k * eta / (k - 1)) * (counts / n) + eta / (k - 1)
        sigma = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(observed - expected) <= 3.0 * sigma + 1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            corrupt(np.array([0, 2]), uniform_matrix(2, 0.1), 0)


class TestMahalanobisMatrix:
    def test_three_blob_geometry(self):
        X, y = gaussian_blobs(150, [[0, 0], [4, 0], [40, 0]], seed=0)
        m = mahalanobis_matrix(X, y)
        diag = np.diag(m.eta)
        # middle class is closest to the others -> keeps labels least often;
        # the far blob keeps them most often
        assert diag[1] == 0.5
        assert diag[2] == 0.9
        assert np.all(np.abs(m.eta.sum(axis=1) - 1.0) <= 1e-9)

    def test_equal_distances_give_equal_flip_rates(self):
        rng = np.random.default_rng(4)
        base = rng.normal(0, 1, (120, 2))
        left = base + [-6.0, 0.0]
        right = (base * [-1.0, 1.0]) + [6.0, 0.0]  # exact mirror of `left`
        apex_half = rng.normal(0, 1, (60, 2)) + [0.0, 8.0]
        apex = np.vstack([apex_half, apex_half * [-1.0, 1.0]])  # mirror-closed
        X = np.vstack([left, right, apex])
        y = np.repeat([0, 1, 2], [120, 120, 120])
        m = mahalanobis_matrix(X, y)
        assert m.eta[2, 0] == pytest.approx(m.eta[2, 1], rel=1e-9)

    def test_requires_three_classes(self):
        X, y = gaussian_blobs(50, [[0, 0], [5, 5]], seed=1)
        with pytest.raises(ValueError):
            mahalanobis_matrix(X, y)

    def test_label_matrix_rejected_as_dataset_rejects_it(self):
        X, y = gaussian_blobs(10, [[0, 0], [5, 0], [0, 5]], seed=1)
        for build in (mahalanobis_matrix, lambda X, y: Dataset(X, y, ("a", "b", "c"))):
            with pytest.raises(ValueError, match="^features must be n x d with one label per"):
                build(X, y[:, None])

    def test_a_non_finite_feature_is_named(self):
        X, y = gaussian_blobs(40, [[0, 0], [5, 0], [0, 5]], seed=2)
        X[7, 1] = np.nan  # named here, not left to surface as a degenerate covariance
        with pytest.raises(ValueError, match="^features must be finite$"):
            mahalanobis_matrix(X, y)

    def test_requires_a_feature_column(self):
        # the automatic ridge divides by the feature count
        with pytest.raises(ValueError, match="^mahalanobis noise needs at least one feature"):
            mahalanobis_matrix(np.empty((6, 0)), [0, 0, 1, 1, 2, 2])

    def test_requires_two_samples_per_class(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [9.0, 9.0]])
        y = np.array([0, 0, 1, 1, 2])
        with pytest.raises(ValueError):
            mahalanobis_matrix(X, y)

    def test_singular_covariance_advises_ridge(self):
        X, y = gaussian_blobs(40, [[0, 0], [5, 0], [0, 5]], seed=2)
        X = np.hstack([X, X[:, :1]])  # duplicated column -> singular covariance
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            mahalanobis_matrix(X, y, ridge=0.0)
        fixed = mahalanobis_matrix(X, y, ridge=1e-6)
        assert np.all(np.abs(fixed.eta.sum(axis=1) - 1.0) <= 1e-9)

    @pytest.mark.parametrize("ridge", [-1.0, math.nan, math.inf])
    def test_a_ridge_that_is_not_finite_and_nonnegative_is_rejected(self, ridge):
        X, y = gaussian_blobs(40, [[0, 0], [5, 0], [0, 5]], seed=2)
        with pytest.raises(ValueError, match=rf"^ridge must lie in \[0, inf\), got {ridge}$"):
            mahalanobis_matrix(X, y, ridge=ridge)

    def test_spec_round_trip(self):
        spec = NoiseSpec.from_dict({"kind": "uniform", "eta": 0.4})
        assert spec.label() == "uniform(0.4)"
        assert np.allclose(spec.transition(2).eta, [[0.6, 0.4], [0.4, 0.6]])
        cc = NoiseSpec.from_dict({"kind": "binary_cc", "rho_pos": 0.1, "rho_neg": 0.3})
        assert (cc.kind, cc.rho_pos, cc.rho_neg) == ("binary_cc", 0.1, 0.3)


class TestNoiseSpec:
    @pytest.mark.parametrize("setting, name", [
        ({"kind": "mahalanobis", "eta": 0.4}, "eta"),
        ({"kind": "uniform", "eta": 0.3, "rho_pos": 0.2}, "rho_pos"),
        ({"kind": "uniform", "ridge": 1.0}, "ridge"),
        ({"kind": "binary_cc", "rho_pos": 0.1, "eta": np.nan}, "eta"),
        ({"kind": "mahalanobis", "rho_neg": 0.1}, "rho_neg"),
    ])
    def test_a_parameter_the_kind_does_not_take_is_rejected(self, setting, name):
        with pytest.raises(ValueError, match=f"^noise {setting['kind']!r} takes no {name}"
                                             " parameter$"):
            NoiseSpec.from_dict(setting)

    @pytest.mark.parametrize("setting, message", [
        ({"kind": "uniform", "eta": 5.0}, r"noise eta must lie in \[0, 1\), got 5.0"),
        ({"kind": "uniform", "eta": -0.1}, r"noise eta must lie in \[0, 1\), got -0.1"),
        ({"kind": "binary_cc", "rho_neg": 1.0}, r"noise rho_neg must lie in \[0, 1\), got 1.0"),
        ({"kind": "binary_cc", "rho_pos": np.nan}, r"noise rho_pos must lie in \[0, 1\), got nan"),
        ({"kind": "mahalanobis", "ridge": -1.0}, r"noise ridge must lie in \[0, inf\), got -1.0"),
        ({"kind": "mahalanobis", "ridge": np.inf}, r"noise ridge must lie in \[0, inf\), got inf"),
    ])
    def test_a_rate_or_ridge_out_of_range_is_rejected_when_read(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseSpec.from_dict(setting)

    def test_a_default_value_of_a_parameter_the_kind_does_not_take_passes(self):
        spec = NoiseSpec.from_dict({"kind": "mahalanobis", "eta": 0.0, "ridge": 0.5})
        assert (spec.kind, spec.eta, spec.ridge) == ("mahalanobis", 0.0, 0.5)

    @pytest.mark.parametrize("setting, label", [
        ({"kind": "uniform", "eta": 0.3}, "uniform(0.3)"),
        ({"kind": "binary_cc", "rho_pos": 0.1, "rho_neg": 0.3}, "binary_cc(0.1,0.3)"),
        ({"kind": "mahalanobis"}, "mahalanobis"),
        ({"kind": "mahalanobis", "ridge": 0.5}, "mahalanobis(0.5)"),
    ])
    def test_label_lists_the_given_parameters(self, setting, label):
        assert NoiseSpec.from_dict(setting).label() == label


class TestHoeffding:
    def test_worked_binary_example(self):
        bound = hoeffding_bound([0.8, 0.2], 0.2, 100)
        gamma = (1.0 - 2.0 * 0.2) * (0.8 - 0.2)
        assert gamma == pytest.approx(0.36)
        assert bound == pytest.approx(1.0 - math.exp(-100 * gamma * gamma / 2.0), abs=1e-12)
        assert bound == pytest.approx(0.99847, abs=5e-6)

    def test_zero_noise_keeps_majority_always(self):
        bound = hoeffding_bound([0.6, 0.3, 0.1], 0.0, 60)
        assert bound < 1.0
        emp = majority_preservation_mc([0.6, 0.3, 0.1], 0.0, 60, trials=2000, rng_seed=0)
        assert emp == 1.0

    def test_large_n_bound_approaches_one(self):
        assert hoeffding_bound([0.7, 0.3], 0.1, 100_000) >= 1.0 - 1e-9

    def test_tied_majority_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_bound([0.4, 0.4, 0.2], 0.1, 50)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            hoeffding_bound([0.7, 0.3], 0.5, 50)

    def test_monte_carlo_meets_bound(self):
        trials = 10_000
        for k, eta, n in [(2, 0.2, 100), (5, 0.3, 200), (10, 0.1, 50)]:
            counts = round_class_counts(np.full(k, 1.0 / k), n)
            counts[0] += n // 5
            p = counts / counts.sum()
            bound = hoeffding_bound(p, eta, int(counts.sum()))
            emp = majority_preservation_mc(p, eta, int(counts.sum()), trials, rng_seed=k)
            stderr = math.sqrt(max(emp * (1 - emp), 1e-12) / trials)
            assert emp >= bound - 3.0 * stderr

    def test_round_class_counts(self):
        counts = round_class_counts([0.5, 0.3, 0.2], 10)
        assert counts.sum() == 10
        assert np.array_equal(counts, [5, 3, 2])
        odd = round_class_counts([1 / 3, 1 / 3, 1 / 3], 10)
        assert odd.sum() == 10

    @pytest.mark.parametrize("p", [[0.9, 0.9], [0.5, -0.2, 0.7], [np.nan, 1.0], [1.0]])
    def test_a_p_that_is_no_probability_vector_is_rejected(self, p):
        # the rule hoeffding_bound states, for the rounding and the simulation too
        for call in (lambda: round_class_counts(p, 10), lambda: hoeffding_bound(p, 0.1, 10),
                     lambda: majority_preservation_mc(p, 0.1, 10, trials=10)):
            with pytest.raises(ValueError, match=r"^p must be a probability vector with K >= 2$"):
                call()

    @pytest.mark.parametrize("n, trials, message", [
        (10, 0, "trials must be >= 1, got 0"), (0, 10, "n must be >= 1, got 0"),
        (10.0, 10, "n must be an integer, got float")])
    def test_a_sample_and_a_trial_count_are_whole_numbers_from_one(self, n, trials, message):
        with pytest.raises(ValueError) as exc:  # no trial would average to nan
            majority_preservation_mc([0.7, 0.3], 0.1, n, trials)
        assert str(exc.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: NoiseSpec("mahalanobis").transition(3),
     "mahalanobis noise needs the training features and labels"),
    (lambda: TransitionMatrix(np.full((2, 3), 1 / 3)),
     "transition matrix must be square with K >= 2"),
], ids=["mahalanobis-without-features", "non-square-matrix"])
def test_one_line_errors(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
