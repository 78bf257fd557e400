"""Brute-force verifiers for the closed-form impurities and the stopping rule.

These deliberately re-derive every quantity from the defining minimization
problem (risk of a constant prediction over a grid of candidate predictions,
exhaustive enumeration of splits) instead of the closed forms, so tests can
check the two routes against each other.  Performance only matters enough to
keep test suites quick; correctness and independence come first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import ClassHistogram, CriterionSpec, split_scores
from .errors import EmptyHistogramError, _interval, _whole
from .tree import _fit_inputs

ORACLE_LOSSES = ("mse", "ce", "01", "mae", "gce", "ne")


@dataclass(frozen=True)
class GridSpec:
    """Search grids for the brute-force risk minimizers.

    ``simplex_step`` controls the lattice over probability vectors;
    ``scalar_range``/``scalar_points`` the first-pass grid for the scalar NE
    prediction, whose endpoints are augmented with the analytic limits at
    +-infinity and refined by ternary search on the middle segment.
    """

    simplex_step: float = 0.005
    scalar_range: tuple[float, float] = (-20.0, 20.0)
    scalar_points: int = 4001

    def __post_init__(self):
        _interval("simplex_step", self.simplex_step, 0.0, 0.5, "(]")
        _whole("scalar_points", self.scalar_points, 3)
        if not self.scalar_range[0] < self.scalar_range[1]:
            raise ValueError("scalar_range must be increasing")


@lru_cache(maxsize=16)
def _sorted_simplex_grid(n_classes: int, resolution: int) -> np.ndarray:
    """All weakly-decreasing integer compositions of ``resolution`` into K parts.

    Divided by ``resolution`` this is a covering grid of the sorted region of
    the simplex.  Because every supported loss has an exchangeable risk
    sum_j p_j * h(yhat_j) with h non-increasing, some sorted prediction is
    optimal whenever p is sorted, so restricting the search this way loses
    nothing (rearrangement inequality) and keeps K = 5 tractable.
    """
    rows: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int, cap: int):
        if slots == 1:
            if remaining <= cap:
                rows.append(tuple(prefix + [remaining]))
            return
        lo = -(-remaining // slots)  # ceil: keep weakly decreasing feasible
        for v in range(min(cap, remaining), lo - 1, -1):
            rec(prefix + [v], remaining - v, slots - 1, v)

    rec([], resolution, n_classes, resolution)
    return np.asarray(rows, dtype=np.float64) / resolution


def _simplex_risks(loss: str, p_sorted: np.ndarray, grid: np.ndarray, q: float | None) -> np.ndarray:
    """Per-sample risk of each candidate prediction against sorted p."""
    if loss == "mse":
        return np.square(grid).sum(axis=1) + 1.0 - 2.0 * grid @ p_sorted
    if loss == "ce" or (loss == "gce" and q == 0.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p_sorted > 0.0, -np.log(grid) * p_sorted, 0.0)
        return terms.sum(axis=1)
    if loss == "01":
        at_vertex = grid.max(axis=1) == 1.0
        return np.where(at_vertex, 1.0 - grid @ p_sorted, 1.0)
    if loss == "mae":
        return 2.0 - 2.0 * grid @ p_sorted
    if loss == "gce":
        return (1.0 - np.power(grid, q) @ p_sorted) / q
    raise ValueError(f"unknown simplex loss {loss!r}")


def _ne_risk(yhat: np.ndarray | float, p_pos: float, p_neg: float, mu: float) -> np.ndarray | float:
    y = np.asarray(yhat, dtype=np.float64)
    risk = p_neg * np.minimum(1.0, np.exp(y - mu)) + p_pos * np.minimum(1.0, np.exp(-y - mu))
    return float(risk) if np.ndim(risk) == 0 else risk


def _ne_minimum(p_pos: float, p_neg: float, mu: float, grid: GridSpec) -> float:
    """Infimum of the NE partial risk over real-valued predictions.

    The risk is monotone on (-inf, -mu] and [mu, inf) with limits p_pos and
    p_neg, and convex on [-mu, mu]; the grid pass plus ternary search on the
    middle segment finds the infimum to near machine precision.
    """
    lo, hi = grid.scalar_range
    pts = np.linspace(lo, hi, grid.scalar_points)
    best = min(float(np.min(_ne_risk(pts, p_pos, p_neg, mu))), p_pos, p_neg)
    a, b = -mu, mu
    for _ in range(200):
        if b - a < 1e-14:
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if _ne_risk(m1, p_pos, p_neg, mu) <= _ne_risk(m2, p_pos, p_neg, mu):
            b = m2
        else:
            a = m1
    best = min(best, _ne_risk((a + b) / 2.0, p_pos, p_neg, mu))
    return best


def brute_force_impurity(
    loss: str,
    hist: ClassHistogram,
    grid: GridSpec = GridSpec(),
    q: float | None = None,
    mu: float | None = None,
    dataset_size: int | None = None,
) -> float:
    """Weighted minimum risk of a constant prediction, found by grid search.

    ``loss`` is one of ``mse, ce, 01, mae, gce, ne``; gce needs ``q`` and ne
    needs ``mu``.  The ne loss predicts a real score and is defined for
    binary histograms only.  ``dataset_size`` defaults to the node size
    (weight 1).
    """
    search = _lattice_search(loss, hist, grid, q)
    total = hist.total
    weight = total / _whole("dataset_size", total if dataset_size is None else dataset_size, total)
    if search is None:
        _interval("mu", mu, 0.0, brackets="[)")
        if hist.n_classes != 2:
            raise ValueError("the ne margin loss is defined for binary problems")
        p = hist.probabilities()
        return weight * _ne_minimum(p[0], p[1], mu, grid)
    _, p_sorted, start, risk = search
    refined = _pattern_descent(loss, p_sorted, start, grid.simplex_step, q)
    return weight * min(risk, refined)


def _lattice_search(loss: str, hist: ClassHistogram, grid: GridSpec, q: float | None):
    """The checks of a brute-force minimization (a known loss, a nonempty
    node, gce's ``q``), then for a loss other than ne the search of the
    sorted lattice: the order sorting p descending (stable), p in that
    order, the best lattice point and its risk.  None for ne, whose
    prediction is a real score."""
    if loss not in ORACLE_LOSSES:
        raise ValueError(f"unknown oracle loss {loss!r}")
    if hist.total == 0:
        raise EmptyHistogramError("cannot minimize the risk of an empty node")
    if loss == "ne":
        return None
    if loss == "gce" and q is None:
        raise ValueError("gce loss requires q")
    p = hist.probabilities()
    order = np.argsort(-p, kind="stable")
    lattice = _sorted_simplex_grid(hist.n_classes, round(1.0 / grid.simplex_step))
    risks = _simplex_risks(loss, p[order], lattice, q)
    best = int(np.argmin(risks))
    return order, p[order], lattice[best], float(risks[best])


def _pattern_descent(
    loss: str, p_sorted: np.ndarray, start: np.ndarray, step: float, q: float | None
) -> float:
    """Shrinking-step pairwise-transfer descent from the best lattice point.

    Moves probability mass delta between coordinate pairs (staying on the
    simplex), halving delta whenever no move improves.  Pure derivative-free
    search on the defining risk objective; it sharpens the lattice optimum of
    the smooth convex losses well past the lattice resolution.
    """
    k = start.shape[0]
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    x = start.copy()
    fx = float(_simplex_risks(loss, p_sorted, x[None, :], q)[0])
    delta = step / 2.0
    while delta > 1e-12:
        candidates = []
        for i, j in pairs:
            if x[j] < delta:
                continue
            c = x.copy()
            c[i] += delta
            c[j] -= delta
            candidates.append(c)
        if candidates:
            cand = np.asarray(candidates)
            risks = _simplex_risks(loss, p_sorted, cand, q)
            best = int(np.argmin(risks))
            if risks[best] < fx:
                x = cand[best]
                fx = float(risks[best])
                continue
        delta /= 2.0
    return fx


def brute_force_minimizer(
    loss: str,
    hist: ClassHistogram,
    grid: GridSpec = GridSpec(),
    q: float | None = None,
) -> np.ndarray:
    """Grid prediction attaining the minimum risk, in the original class order.

    Resolves the sorted-grid search back through the descending sort of p.
    Ties among equal probabilities make the order convention (stable sort)
    part of the answer; tests should use histograms with distinct counts.
    """
    if loss == "ne":
        raise ValueError("the ne minimizer is a real score, not a probability vector")
    order, _, best, _ = _lattice_search(loss, hist, grid, q)
    out = np.empty_like(best)
    out[order] = best
    return out


@dataclass(frozen=True)
class EarlyStopReport:
    """Outcome of exhaustively scoring every candidate split at one node."""

    halts: bool
    witness: tuple[int, float] | None  # (feature, threshold) of the best split
    best_value: float
    majority_condition: bool | None


def _candidate_splits(features: np.ndarray):
    """(feature, threshold) pairs, with the tree learner's threshold rule."""
    for f in range(features.shape[1]):
        values = np.unique(features[:, f]).tolist()
        for lo, hi in zip(values[:-1], values[1:]):
            mid = (lo + hi) / 2.0
            yield f, mid if lo <= mid < hi else lo


def exhaustive_early_stop_check(
    features,
    labels,
    criterion: CriterionSpec,
    max_samples: int = 500,
) -> EarlyStopReport:
    """Enumerate every split at the root node and decide whether growth halts.

    Growth halts when the best score over all candidate splits does not
    exceed the criterion's ``halting_slack`` (zero for conservative
    criteria), or when there is no candidate at all: the tree learner's rule.
    The enumeration is independent of the tree learner; the score is the one
    it runs, :func:`split_scores` (risk reduction, or twoing score for
    twoing).  For conservative criteria the report also evaluates,
    directly on integer count vectors, whether every split keeps the parent's
    maximum class count equal to the sum of the children's maxima -- the
    stopping condition the tree learner must reproduce.
    """
    X, y, n_classes = _fit_inputs(features, labels, None)  # the tree learner's checks
    if X.shape[0] > max_samples:
        raise ValueError(f"refusing to enumerate more than {max_samples} samples")
    parent = ClassHistogram.from_labels(y, n_classes)
    dataset_size = X.shape[0]

    best_value = -math.inf
    witness = None
    condition = True if criterion.is_conservative else None
    for f, thr in _candidate_splits(X):
        mask = X[:, f] <= thr
        left = ClassHistogram.from_labels(y[mask], n_classes)
        right = ClassHistogram.from_labels(y[~mask], n_classes)
        value = float(split_scores(criterion, parent.counts, left.counts, dataset_size))
        if value > best_value:
            best_value = value
            witness = (f, thr)
        if criterion.is_conservative:
            eq = int(left.counts.max()) + int(right.counts.max()) == int(parent.counts.max())
            condition = condition and eq

    if witness is None:
        return EarlyStopReport(True, None, 0.0, condition)
    return EarlyStopReport(best_value <= criterion.halting_slack, witness, best_value, condition)
