"""Self-check suites pairing every closed form with its brute-force oracle.

Each suite returns a list of named checks; the ``verify`` CLI command prints
them as a table and fails if any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import ClassHistogram, CriterionSpec, impurity, mu_from_lambda
from .noise import (
    _noisy_expectation,
    corrupt,
    hoeffding_bound,
    mahalanobis_matrix,
    majority_preservation_mc,
    round_class_counts,
    uniform_matrix,
)
from .oracle import GridSpec, brute_force_impurity, exhaustive_early_stop_check
from .tree import TreeParams, fit

SIMPLEX_TOL = 1e-4
NE_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_histogram(rng: np.random.Generator, n_classes: int) -> ClassHistogram:
    counts = rng.integers(0, 21, n_classes)
    if counts.sum() == 0:
        counts[rng.integers(n_classes)] = 1
    return ClassHistogram(counts)


def impurity_suite(seed: int = 0, n_per_criterion: int = 40) -> list[CheckResult]:
    """Closed-form impurities vs grid minimization of the defining risks."""
    rng = np.random.default_rng(seed)
    grid = GridSpec()
    # (name, criterion, oracle loss, its keywords, class count or None to draw one
    # from 2-5 per histogram, tolerance)
    table = [
        ("gini/mse", CriterionSpec("gini"), "mse", {}, None, SIMPLEX_TOL),
        ("entropy/ce", CriterionSpec("entropy"), "ce", {}, None, SIMPLEX_TOL),
        ("misclassification/01", CriterionSpec("misclassification"), "01", {}, None, SIMPLEX_TOL),
        ("mae/mae", CriterionSpec("mae"), "mae", {}, None, SIMPLEX_TOL),
        ("gce(q=0.5)", CriterionSpec("gce", q=0.5), "gce", {"q": 0.5}, None, SIMPLEX_TOL),
        ("gce(q=2)", CriterionSpec("gce", q=2.0), "gce", {"q": 2.0}, None, SIMPLEX_TOL),
        *((f"ne(lambda={lam:g})", CriterionSpec("ne", lam=lam), "ne",
           {"mu": mu_from_lambda(lam)}, 2, NE_TOL) for lam in (0.25, 0.5, 0.75, 1.0)),
    ]
    results = []
    for name, spec, loss, kw, k, tol in table:
        worst, worst_counts = 0.0, None
        for _ in range(n_per_criterion):
            hist = _random_histogram(rng, k or int(rng.integers(2, 6)))
            closed = impurity(spec, hist, hist.total).value
            gap = abs(closed - brute_force_impurity(loss, hist, grid, **kw))
            if gap > worst:
                worst, worst_counts = gap, hist.counts.tolist()
        results.append(CheckResult(
            name, worst <= tol,
            f"worst |closed-oracle| = {worst:.3e} (tol {tol:g})"
            + ("" if worst <= tol else f" at counts {worst_counts}"),
        ))
    return results


def early_stop_instances(seed: int = 0, count: int = 50):
    """Small labeled datasets exercising the stopping rule both ways.

    Mixes random instances with constructed ones: pure nodes, nodes whose
    every split keeps the majority class in both children, and nodes where a
    split changes it.
    """
    rng = np.random.default_rng(seed)
    instances = []
    # the canonical halting example: (4,2) splittable only into (3,1)/(1,1)
    instances.append((np.array([[0.], [0.], [0.], [0.], [1.], [1.]]),
                      np.array([0, 0, 0, 1, 0, 1])))
    # a pure node
    instances.append((np.arange(8, dtype=float)[:, None], np.zeros(8, dtype=np.int64)))
    # identical class distribution on both sides of the only split
    instances.append((np.array([[0.], [0.], [1.], [1.]]), np.array([0, 1, 0, 1])))
    while len(instances) < count:
        n = int(rng.integers(6, 41))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        X = rng.integers(0, 3, (n, d)).astype(np.float64)
        majority = int(rng.integers(k))
        y = np.full(n, majority, dtype=np.int64)
        minority = rng.random(n) < rng.uniform(0.1, 0.45)
        y[minority] = rng.integers(0, k, minority.sum())
        instances.append((X, y))
    return instances[:count]


def early_stop_suite(seed: int = 0, count: int = 50) -> list[CheckResult]:
    """Tree halting vs exhaustive split enumeration on small instances."""
    mis = CriterionSpec("misclassification")
    ent = CriterionSpec("entropy")
    mis_disagree = 0
    condition_disagree = 0
    ent_disagree = 0
    for X, y in early_stop_instances(seed, count):
        report = exhaustive_early_stop_check(X, y, mis)
        tree_halts = len(fit(X, y, TreeParams(mis)).feature) == 1
        if tree_halts != report.halts:
            mis_disagree += 1
        if report.majority_condition != report.halts:
            condition_disagree += 1
        ent_report = exhaustive_early_stop_check(X, y, ent)
        ent_tree_splits = len(fit(X, y, TreeParams(ent)).feature) > 1
        if ent_tree_splits != (not ent_report.halts):
            ent_disagree += 1
    return [
        CheckResult("misclassification halting matches oracle", mis_disagree == 0,
                    f"{mis_disagree} disagreements over {count} instances"),
        CheckResult("halting iff majority-class condition", condition_disagree == 0,
                    f"{condition_disagree} disagreements over {count} instances"),
        CheckResult("entropy splits iff some split separates distributions",
                    ent_disagree == 0,
                    f"{ent_disagree} disagreements over {count} instances"),
    ]


def hoeffding_suite(seed: int = 0, trials: int = 10_000) -> list[CheckResult]:
    """Monte Carlo majority preservation vs the closed-form lower bound."""
    rng = np.random.default_rng(seed)
    results = []
    for k in (2, 5, 10):
        for eta in (0.1, 0.2, 0.3):
            for n in (50, 200, 1000):
                counts = rng.multinomial(n, np.full(k, 1.0 / k))
                star = int(rng.integers(k))
                counts[star] += max(10, n // 10)  # force a clear majority
                while np.count_nonzero(counts == counts.max()) > 1:
                    counts[star] += 1
                n_real = int(counts.sum())
                p = counts / n_real
                bound = hoeffding_bound(p, eta, n_real)
                emp = majority_preservation_mc(p, eta, n_real, trials, rng_seed=rng)
                stderr = math.sqrt(max(emp * (1.0 - emp), 1e-12) / trials)
                ok = emp >= bound - 3.0 * stderr
                results.append(CheckResult(
                    f"K={k} eta={eta:g} n={n_real}", ok,
                    f"empirical {emp:.5f} vs bound {bound:.5f} (3se {3 * stderr:.5f})",
                ))
    return results


def noise_suite(seed: int = 0) -> list[CheckResult]:
    """Corruption statistics and the class-similarity transition matrix."""
    rng = np.random.default_rng(seed)
    results = []

    n = 100_000
    k = 10
    eta = 0.4
    y = rng.integers(0, k, n)
    noisy = corrupt(y, uniform_matrix(k, eta), rng)
    flip = float((noisy != y).mean())
    tol = 3.0 * math.sqrt(eta * (1.0 - eta) / n)
    results.append(CheckResult(
        "uniform flip fraction", abs(flip - eta) <= tol,
        f"observed {flip:.5f}, expected {eta:g} +- {tol:.5f}",
    ))

    ident = corrupt(y, uniform_matrix(k, 0.0), rng)
    results.append(CheckResult("identity matrix is a no-op", bool((ident == y).all()),
                               "all labels unchanged"))

    p = rng.dirichlet(np.ones(k))
    counts = round_class_counts(p, n)
    expected = _noisy_expectation(counts / n, eta)
    labels = np.repeat(np.arange(k), counts)
    hist = np.bincount(corrupt(labels, uniform_matrix(k, eta), rng), minlength=k) / n
    sigma = np.sqrt(expected * (1.0 - expected) / n)
    ok = bool(np.all(np.abs(hist - expected) <= 3.0 * sigma + 1e-12))
    results.append(CheckResult(
        "noisy class histogram matches expectation", ok,
        f"max |obs-exp|/sigma = {float(np.max(np.abs(hist - expected) / sigma)):.2f}",
    ))

    centers = np.array([[0.0, 0.0], [4.0, 0.0], [40.0, 0.0]])
    X = np.vstack([rng.normal(c, 1.0, (150, 2)) for c in centers])
    lab = np.repeat(np.arange(3), 150)
    tm = mahalanobis_matrix(X, lab)
    diag = np.diag(tm.eta)
    row_ok = bool(np.all(np.abs(tm.eta.sum(axis=1) - 1.0) <= 1e-9))
    span_ok = math.isclose(diag.min(), 0.5) and math.isclose(diag.max(), 0.9)
    far_ok = diag[2] == diag.max()
    results.append(CheckResult("similarity matrix rows sum to 1", row_ok, str(tm.eta.sum(axis=1))))
    results.append(CheckResult(
        "similarity diagonals span [0.5, 0.9] with the far class at 0.9",
        span_ok and far_ok, f"diagonals {np.round(diag, 4).tolist()}",
    ))
    return results


SUITES = {"impurity": impurity_suite, "early-stop": early_stop_suite,
          "hoeffding": hoeffding_suite, "noise": noise_suite}
