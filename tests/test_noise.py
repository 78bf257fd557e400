"""Corruption models, transition matrices, and the majority-preservation bound."""

import math

import numpy as np
import pytest

from robust_trees.dataeng import Dataset
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
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            TransitionMatrix.from_csv(path)

    def test_diagonal_dominance_flag(self):
        assert uniform_matrix(4, 0.2).diagonally_dominant()
        flat = TransitionMatrix(np.full((2, 2), 0.5))
        assert not flat.diagonally_dominant()

    def test_csv_round_trip(self, tmp_path):
        m = mahalanobis_matrix(*gaussian_blobs(60, [[0, 0], [5, 0], [0, 7]], seed=3))
        path = tmp_path / "matrix.csv"
        m.to_csv(path)
        again = TransitionMatrix.from_csv(path)
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

    def test_spec_round_trip(self):
        spec = NoiseSpec.from_dict({"kind": "uniform", "eta": 0.4})
        assert spec.label() == "uniform(0.4)"
        assert np.allclose(spec.transition(2).eta, [[0.6, 0.4], [0.4, 0.6]])
        cc = NoiseSpec.from_dict({"kind": "binary_cc", "rho_pos": 0.1, "rho_neg": 0.3})
        assert cc.to_dict() == {"kind": "binary_cc", "rho_pos": 0.1, "rho_neg": 0.3}


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
