"""Label-corruption models and majority-preservation bounds.

Three transition-matrix constructions are provided: uniform noise (every
class flips at the same rate, spread evenly over the other classes), binary
class-conditional noise with one flip rate per class, and a multiclass
class-conditional model that makes similar classes (small Mahalanobis
distance between their feature distributions) confuse each other more often.

``corrupt`` resamples each label independently from its matrix row.
``hoeffding_bound`` gives the closed-form lower bound on the probability
that uniform noise keeps a sample's majority class unchanged, and
``majority_preservation_mc`` estimates the same probability by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (_check_type, _class_count, _from_json, _interval, _labelled, _labels,
                     _probabilities, _whole)

_ROW_SUM_TOL = 1e-9
# each noise kind -> the NoiseSpec parameters it takes
_KIND_PARAMS = {"uniform": ("eta",), "binary_cc": ("rho_pos", "rho_neg"),
                "mahalanobis": ("ridge",)}
KINDS = tuple(_KIND_PARAMS)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic K x K matrix; entry [j, k] is P(noisy = k | true = j)."""

    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.float64)
        if eta.ndim != 2 or eta.shape[0] != eta.shape[1] or eta.shape[0] < 2:
            raise ValueError("transition matrix must be square with K >= 2")
        if not np.all((eta >= 0.0) & (eta <= 1.0)):  # NaN fails both comparisons
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(eta.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("every row must sum to 1")
        object.__setattr__(self, "eta", eta)

    @property
    def n_classes(self) -> int:
        return int(self.eta.shape[0])

    def diagonally_dominant(self) -> bool:
        """True when each class keeps its own label more often than any flip."""
        diag = np.diag(self.eta)
        off = self.eta + np.diag(np.full(self.n_classes, -np.inf))
        return bool(np.all(diag > off.max(axis=1)))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.eta:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative corruption setting used by experiment configs.

    kind ``uniform`` uses ``eta``; ``binary_cc`` uses ``rho_pos``/``rho_neg``
    (flip rates for class 0 and class 1); ``mahalanobis`` builds the
    class-similarity matrix from the training features with ``ridge``
    regularization (None = automatic scaling).  A parameter that the kind
    does not take must keep its default.  Rates lie in [0, 1), a ridge in
    [0, inf); the matrix checks uniform noise's bound for K classes.
    """

    kind: str
    eta: float = 0.0
    rho_pos: float = 0.0
    rho_neg: float = 0.0
    ridge: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        for name in ("eta", "rho_pos", "rho_neg", "ridge"):
            value = getattr(self, name)
            _check_type(f"noise {name}", value, Real, optional=name == "ridge")
            if value != getattr(NoiseSpec, name) and name not in _KIND_PARAMS[self.kind]:
                raise ValueError(f"noise {self.kind!r} takes no {name} parameter")
            _interval(f"noise {name}", value, 0.0, math.inf if name == "ridge" else 1.0, "[)",
                      optional=name == "ridge")

    def label(self) -> str:
        if self.kind == "uniform":
            return f"uniform({self.eta:g})"
        if self.kind == "binary_cc":
            return f"binary_cc({self.rho_pos:g},{self.rho_neg:g})"
        return "mahalanobis"

    def transition(self, n_classes: int, features=None, labels=None) -> TransitionMatrix:
        if self.kind == "uniform":
            return uniform_matrix(n_classes, self.eta)
        if self.kind == "binary_cc":
            if n_classes != 2:
                raise ValueError("binary_cc noise needs a binary problem")
            return binary_cc_matrix(self.rho_pos, self.rho_neg)
        if features is None or labels is None:
            raise ValueError("mahalanobis noise needs the training features and labels")
        return mahalanobis_matrix(features, labels, ridge=self.ridge)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in _KIND_PARAMS[self.kind]:
            if getattr(self, name) is not None:
                d[name] = getattr(self, name)
        return d

    @staticmethod
    def from_dict(d: dict) -> "NoiseSpec":
        return _from_json(NoiseSpec, d, "noise setting")


def _uniform_rate(eta, k: int) -> float:
    """``eta`` if uniform noise on K classes can flip at that rate, in [0, (K-1)/K)."""
    return _interval(f"uniform eta for K={k}", eta, 0.0, (k - 1) / k, "[)")


def uniform_matrix(n_classes: int, eta: float) -> TransitionMatrix:
    """Keep the label with probability 1 - eta, else flip uniformly."""
    k = _class_count(n_classes, "n_classes")
    _uniform_rate(eta, k)
    m = np.full((k, k), eta / (k - 1))
    np.fill_diagonal(m, 1.0 - eta)
    return TransitionMatrix(m)


def binary_cc_matrix(rho_pos: float, rho_neg: float) -> TransitionMatrix:
    """Binary class-conditional noise; class 0 flips at rho_pos, class 1 at rho_neg."""
    for name, rho in (("rho_pos", rho_pos), ("rho_neg", rho_neg)):
        _interval(name, rho, 0.0, 1.0, "[)")
    return TransitionMatrix(np.array([[1.0 - rho_pos, rho_pos], [rho_neg, 1.0 - rho_neg]]))


def _pairwise_mahalanobis(features: np.ndarray, labels: np.ndarray, ridge: float | None):
    """Mahalanobis distances between class means under per-pair pooled covariance."""
    k = int(labels.max()) + 1
    d = features.shape[1]
    groups = [features[labels == c] for c in range(k)]
    for c, g in enumerate(groups):
        if g.shape[0] < 2:
            raise ValueError(f"class {c} needs at least 2 samples to estimate covariance")
    means = [g.mean(axis=0) for g in groups]
    covs = [np.cov(g, rowvar=False, ddof=1).reshape(d, d) for g in groups]
    sizes = [g.shape[0] for g in groups]

    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pooled = ((sizes[i] - 1) * covs[i] + (sizes[j] - 1) * covs[j]) / (
                sizes[i] + sizes[j] - 2
            )
            lam = ridge
            if lam is None:
                lam = 1e-6 * float(np.trace(pooled)) / d
            if lam > 0.0:
                pooled = pooled + lam * np.eye(d)
            diff = means[i] - means[j]
            try:
                sol = np.linalg.solve(pooled, diff)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    "singular pooled covariance; pass ridge > 0 to regularize"
                ) from exc
            sq = float(diff @ sol)
            if not np.isfinite(sq) or sq <= 0.0:
                raise np.linalg.LinAlgError(
                    "degenerate pooled covariance or coincident class means; "
                    "pass ridge > 0 to regularize"
                )
            dist[i, j] = dist[j, i] = math.sqrt(sq)
    return dist


def mahalanobis_matrix(features, labels, ridge: float | None = None) -> TransitionMatrix:
    """Class-conditional noise driven by between-class similarity.

    Off-diagonal similarity is the inverse Mahalanobis distance between the
    two classes; each diagonal starts as the class's total distance to the
    rest and is rescaled affinely so the diagonals span [0.5, 0.9] (the
    class nearest to the others keeps its labels least often).  Each row's
    off-diagonal mass, 1 - diagonal, is then distributed proportionally to
    the similarities, which keeps rows summing to one.  ``ridge``, if given,
    must be a finite number >= 0.
    """
    _interval("ridge", ridge, 0.0, brackets="[)", optional=True)
    X, y = _labelled(features, labels)
    k = int(y.max()) + 1
    if k < 3:
        raise ValueError("mahalanobis noise needs at least 3 classes")
    dist = _pairwise_mahalanobis(X, y, ridge)

    sim = np.zeros_like(dist)
    off = ~np.eye(k, dtype=bool)
    sim[off] = 1.0 / dist[off]
    total_dist = dist.sum(axis=1)  # sum_{j != i} 1 / sim_ij

    lo, hi = total_dist.min(), total_dist.max()
    if hi - lo < 1e-300:
        diag = np.full(k, 0.7)
    else:
        diag = 0.5 + 0.4 * (total_dist - lo) / (hi - lo)

    m = np.zeros((k, k))
    for i in range(k):
        row_sim = sim[i].copy()
        row_sim[i] = 0.0
        m[i] = (1.0 - diag[i]) * row_sim / row_sim.sum()
        m[i, i] = diag[i]
    return TransitionMatrix(m)


def corrupt(labels, matrix: TransitionMatrix, rng_seed) -> np.ndarray:
    """Resample each label from its transition row; deterministic given the seed."""
    k = matrix.n_classes
    y = _labels(labels, k, "the transition matrix")
    rng = np.random.default_rng(rng_seed)
    u = rng.random(y.shape[0])
    cdf = np.cumsum(matrix.eta, axis=1)
    out = (u[:, None] >= cdf[y]).sum(axis=1)
    return np.minimum(out, k - 1).astype(np.int64)


def _noisy_expectation(p: np.ndarray, eta: float) -> np.ndarray:
    """Expected class probabilities after uniform noise at rate eta."""
    k = p.shape[0]
    return (1.0 - k * eta / (k - 1)) * p + eta / (k - 1)


def hoeffding_bound(p, eta: float, n: int) -> float:
    """Lower bound on P(majority class survives uniform noise at rate eta).

    1 - (K-1) exp(-n gamma^2 / 2), with gamma the smallest expected
    post-noise gap between the majority class and any other class.
    Requires a unique majority and eta < (K-1)/K.
    """
    p = _probabilities(p)
    k = p.shape[0]
    _uniform_rate(eta, k)
    _whole("n", n, 1)
    star = int(np.argmax(p))
    others = np.delete(p, star)
    if others.max() >= p[star]:
        raise ValueError("the majority class must be unique")
    tilde = _noisy_expectation(p, eta)
    gamma = tilde[star] - np.delete(tilde, star).max()
    return 1.0 - (k - 1) * math.exp(-n * gamma * gamma / 2.0)


def round_class_counts(p, n: int) -> np.ndarray:
    """Integer class counts summing to n >= 1, nearest to n * p (largest remainder)."""
    raw = _probabilities(p) * _whole("n", n, 1)
    counts = np.floor(raw).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def majority_preservation_mc(p, eta: float, n: int, trials: int, rng_seed=0) -> float:
    """Simulated probability that the majority class survives uniform noise.

    The sample is realized as the integer class counts closest to n * p;
    each trial corrupts all n labels and checks whether the original
    majority class still has a (possibly tied) maximal count.
    """
    _whole("trials", trials, 1)
    counts = round_class_counts(p, n)
    k = counts.shape[0]
    star = int(np.argmax(counts))
    matrix = uniform_matrix(k, eta)
    rng = np.random.default_rng(rng_seed)
    noisy = np.zeros((trials, k), dtype=np.int64)
    for c in range(k):
        if counts[c] > 0:
            noisy += rng.multinomial(int(counts[c]), matrix.eta[c], size=trials)
    preserved = noisy[:, star] >= noisy.max(axis=1)
    return float(preserved.mean())
