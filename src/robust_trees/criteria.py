"""Split criteria: loss-derived node impurities and risk reduction.

Every supported criterion is the minimum per-sample risk a constant
prediction can achieve on a node, expressed in closed form as a function of
the node's class-probability vector p:

    gini                1 - ||p||_2^2
    entropy             -sum_k p_k ln p_k          (0 ln 0 := 0)
    misclassification   1 - ||p||_inf
    mae                 2 (1 - ||p||_inf)
    gce(q)              entropy at q=0; (1 - ||p||_{1/(1-q)}) / q for q in (0,1);
                        (1 - ||p||_inf) / q for q >= 1
    ne(lambda)          min{1 - ||p||_inf, lambda * sqrt((1 - ||p||_2^2) (K-1)/K)}

The negative-exponential (NE) criterion comes from the margin loss
min{1, exp(-y*yhat - mu)} with lambda = 2 exp(-mu); lambda in (0, 1] tunes it
between the misclassification impurity (lambda = 1) and a scaled square root
of the Gini impurity (lambda -> 0).  lambda = 0 is accepted and means the
limiting criterion: splits are ranked by the sqrt-Gini term alone, since the
raw formula would collapse to zero everywhere.

``twoing`` is also accepted as a criterion kind.  It is not loss-derived and
has no node impurity; its splits are ranked by the twoing score instead of
risk reduction.  :func:`split_scores` holds every split-score formula.

Count arrays keep the classes on their last axis, and every sum or maximum
over the classes reduces along the K class rows of the array's ``.T``.  A
caller that stores its counts class-major (K x m) and passes the ``.T`` view
makes each such reduction K - 1 contiguous vector operations over the m
candidates instead of m reductions over K entries.  The class sums keep the
order numpy uses on a contiguous class-last array (one class after another
below 8 classes, pairwise from 8 on), so scores are bit for bit the same on
either layout and no fitted tree depends on it.

:func:`split_scores` computes each parent's terms once per call and scores
the candidates in blocks of ``12288 // K`` (4,096 at K = 3) into one output
array, so that each float64 temporary of a block, K x block, stays within
96 KiB.  That is below glibc's default mmap threshold of 128 KiB: the
temporaries are reused from the heap, where whole-call temporaries of a
large node (a 6,000-row root of 8 continuous columns has 48,000 candidates)
were mapped and faulted in anew at every call.  Every operation on a
candidate reads only its own count row and its parent's terms, so a score
has the same bits whichever block it falls in, and a call of one block
runs as an unblocked call would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyHistogramError, PartitionError, _check_type, _class_count, _interval,
                     _labels, _read, _whole)

KINDS = ("gini", "entropy", "misclassification", "mae", "gce", "ne", "twoing")

# The conservative criteria, whose impurity is (1 - ||p||_inf) / D: each kind -> its D
# (gce's D is its q when q >= 1).  Their risk reductions reduce to integer
# arithmetic on class counts and are computed exactly.
_CONSERVATIVE = {"misclassification": 1.0, "mae": 0.5}

# each kind that takes a parameter -> its JSON key, its CriterionSpec field and its interval
_PARAMS = {"gce": ("q", "q", (0.0, math.inf, "[)")), "ne": ("lambda", "lam", (0.0, 1.0, "[]"))}

# a criterion's JSON keys -> CriterionSpec fields
_CRITERION_KEYS = {"kind": "kind", **{key: name for key, name, _ in _PARAMS.values()}}

# bytes of one float64 temporary (K x block candidates) of a scoring block,
# under glibc's default 128 KiB mmap threshold (see the module docstring)
_BLOCK_BYTES = 96 * 1024


@dataclass(frozen=True)
class CriterionSpec:
    """A split criterion plus its parameter, if it has one.

    ``q`` is required for ``gce`` (q >= 0), ``lam`` for ``ne``
    (0 <= lambda <= 1).  Other kinds take no parameter.
    """

    kind: str
    q: float | None = None
    lam: float | None = None

    def __post_init__(self):
        _check_type("criterion kind", self.kind, str)
        if self.kind not in KINDS:
            raise ValueError(f"unknown criterion kind: {self.kind!r}")
        for owner, (key, name, interval) in _PARAMS.items():
            value = getattr(self, name)
            if self.kind != owner:
                if value is not None:
                    raise ValueError(f"criterion {self.kind!r} takes no {key} parameter")
            elif value is None:
                raise ValueError(f"{owner} criterion requires {key}")
            else:
                _interval(f"criterion {key}", value, *interval)

    @property
    def _divisor(self) -> float | None:
        """The D of a conservative criterion's impurity (1 - ||p||_inf) / D, else None."""
        return self.q if self.kind == "gce" and self.q >= 1.0 else _CONSERVATIVE.get(self.kind)

    @property
    def is_conservative(self) -> bool:
        """Whether the impurity is an exact multiple of 1 - ||p||_inf."""
        return self._divisor is not None

    @property
    def halting_slack(self) -> float:
        """Best split score at or below which growth halts: conservative scores
        come from integer counts and are exact; others allow 1e-12 of noise."""
        return 0.0 if self.is_conservative else 1e-12

    def conservative_constant(self) -> float:
        """The C = 1 / D in C * (1 - ||p||_inf) for conservative criteria."""
        if not self.is_conservative:
            raise ValueError(f"{self.label()} is not a conservative criterion")
        return 1.0 / self._divisor

    def params_label(self) -> str:
        """The parameter as ``key=value`` (``q=...``, ``lambda=...``); empty for other kinds."""
        if self.kind not in _PARAMS:
            return ""
        key, name, _ = _PARAMS[self.kind]
        return f"{key}={getattr(self, name):g}"

    def label(self) -> str:
        params = self.params_label()
        return f"{self.kind}({params})" if params else self.kind

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _CRITERION_KEYS.items()
                if getattr(self, name) is not None}

    @staticmethod
    def from_dict(d: dict) -> "CriterionSpec":
        """Read the object :meth:`to_dict` writes; a non-object, an unknown
        key or a missing ``kind`` raises ``ValueError``."""
        return CriterionSpec(**_read("criterion", d, _CRITERION_KEYS, ("kind",)))


@dataclass(frozen=True)
class ClassHistogram:
    """Per-class sample counts at a node."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("histogram needs a 1-D count vector")
        _class_count(counts.shape[0], "histogram K")
        if np.any(counts < 0):
            raise ValueError("class counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @staticmethod
    def from_labels(labels, n_classes: int) -> "ClassHistogram":
        """The counts of ``labels``, whole numbers in [0, n_classes)."""
        return ClassHistogram(np.bincount(_labels(labels, n_classes, "n_classes"),
                                          minlength=n_classes))

    @property
    def n_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        """Empirical class-probability vector; requires a nonempty node."""
        if self.total == 0:
            raise EmptyHistogramError("empty histogram has no probability vector")
        return self.counts / self.total


@dataclass(frozen=True)
class WeightedImpurity:
    """Node impurity scaled by the node's share of the full dataset."""

    value: float
    weight: float


def _class_sum(counts: np.ndarray) -> np.ndarray:
    """Sum over the last (class) axis, reduced along ``counts.T``'s K class
    rows, in the order numpy sums a contiguous class-last array: one class
    after the other below 8 classes, pairwise from 8 on."""
    if counts.shape[-1] < 8:
        return np.add.reduce(counts.T, axis=0).T
    return np.ascontiguousarray(counts).sum(axis=-1)


def _class_max(counts: np.ndarray) -> np.ndarray:
    """Maximum over the last (class) axis, reduced along the class rows."""
    return np.maximum.reduce(counts.T, axis=0).T


def counts_impurity(spec: CriterionSpec, counts: np.ndarray) -> np.ndarray:
    """Unweighted impurity I(p) for each count vector in ``counts``.

    ``counts`` has class counts along the last axis; every row must have a
    positive total.  Vectorized so the split search can score all candidate
    thresholds of a feature in one call.  Passed as the ``.T`` view of
    class-major (K x m) memory, ``counts`` turns every sum and maximum over
    the classes into K - 1 contiguous vector operations; the order of the
    class sums keeps the results bit for bit those of a class-last array.
    """
    counts = np.asarray(counts)
    p = counts / _class_sum(counts)[..., None]  # int / int divides in float64: no float copy
    kind, divisor = spec.kind, spec._divisor
    if kind == "gini":
        return 1.0 - _class_sum(np.square(p))
    if kind == "entropy" or (kind == "gce" and spec.q == 0.0):
        plogp = np.log(p, out=np.zeros_like(p), where=p > 0.0)  # 0 ln 0 := 0
        plogp *= p
        return -_class_sum(plogp)
    if divisor is not None:  # x / 1 is x and x / 0.5 is 2 x, bit for bit
        return (1.0 - _class_max(p)) / divisor
    if kind == "gce":
        r = 1.0 / (1.0 - spec.q)
        norm = np.power(_class_sum(np.power(p, r)), 1.0 / r)
        return (1.0 - norm) / spec.q
    if kind == "ne":
        k = counts.shape[-1]
        gini = np.maximum(1.0 - _class_sum(np.square(p)), 0.0)
        root = np.sqrt(gini * (k - 1) / k)
        if spec.lam == 0.0:
            return root
        return np.minimum(1.0 - _class_max(p), spec.lam * root)
    raise ValueError(f"criterion {spec.label()} does not define a node impurity")


def impurity(spec: CriterionSpec, hist: ClassHistogram, dataset_size: int) -> WeightedImpurity:
    """Weighted node impurity W_S * I(p), with W_S = |S| / dataset_size."""
    total = hist.total
    if total == 0:
        raise EmptyHistogramError("cannot compute the impurity of an empty node")
    weight = total / _whole("dataset_size", dataset_size, total)
    value = weight * float(counts_impurity(spec, hist.counts)) + 0.0  # normalize -0.0
    return WeightedImpurity(value=value, weight=weight)


def split_scores(spec: CriterionSpec, parent, left, dataset_size: int, node=None) -> np.ndarray:
    """Scores of splitting count array ``parent`` into ``left`` and ``parent - left``.

    The one split-score formula, used by the tree learner, the oracle,
    :func:`risk_reduction` and :func:`twoing_score`.  ``left`` stacks count
    vectors (classes on the last axis) against which ``parent`` broadcasts;
    both children must be nonempty.  Given ``node``, ``parent`` instead
    holds one count row per node and ``left[i]`` splits node ``node[i]``:
    the terms of each parent are computed once and gathered per candidate.
    With W = size / dataset_size, twoing scores (W_L W_R / 4)
    (sum_k |p_L(k) - p_R(k)|)^2, conservative criteria
    C (max L + max R - max P) / dataset_size (exactly 0 when nothing is
    gained), and all others the risk reduction W_P I(P) - (W_L I(L) + W_R I(R)).
    As in :func:`counts_impurity`, ``left`` passed as the ``.T`` view of
    class-major (K x m) memory makes the sums and maxima over the classes
    contiguous vector operations, and the order of the class sums keeps the
    scores bit for bit those of a class-last array.  A stack of more than
    :func:`_block_size` candidates under one parent or gathered parents is
    scored a block at a time into one output array.
    """
    parent, left = np.asarray(parent), np.asarray(left)
    # the per-parent terms: max P, or n and the weighted parent impurity
    if spec.is_conservative:
        terms = (_class_max(parent),)
    elif spec.kind == "twoing":
        terms = (_class_sum(parent),)
    else:
        n = _class_sum(parent)
        terms = (n, n / dataset_size * counts_impurity(spec, parent))
    block = _block_size(left.shape[-1])
    if left.ndim != 2 or left.shape[0] <= block or (node is None and parent.ndim > 1):
        return _scores(spec, parent, left, dataset_size, node, terms)
    out = np.empty(left.shape[0])
    for start in range(0, left.shape[0], block):
        part = slice(start, start + block)
        out[part] = _scores(spec, parent, left[part], dataset_size,
                            None if node is None else node[part], terms)
    return out


def _block_size(k: int) -> int:
    """Candidates per scoring block: K of them per candidate fill at most
    ``_BLOCK_BYTES`` as float64."""
    return max(1, _BLOCK_BYTES // (8 * k))


def _scores(spec: CriterionSpec, parent, left, dataset_size: int, node, terms) -> np.ndarray:
    """:func:`split_scores` of the candidates ``left``, given the per-parent
    ``terms`` that it computed."""
    if node is None:
        at = lambda per_node: per_node  # one parent, broadcast
        right = parent - left  # keeps the layout of ``left``
    else:
        at = lambda per_node: per_node[node]
        # gathered class-major, the layout of ``left``
        right = np.take(parent.T, node, axis=1).T - left
    if spec.is_conservative:
        gain = _class_max(left) + _class_max(right) - at(terms[0])
        return spec.conservative_constant() * gain / dataset_size
    n_left = _class_sum(left)
    n_right = at(terms[0]) - n_left
    if spec.kind == "twoing":
        gap = _class_sum(np.abs(left / n_left[..., None] - right / n_right[..., None]))
        return (n_left / dataset_size) * (n_right / dataset_size) / 4.0 * np.square(gap)
    return at(terms[1]) - (
        n_left / dataset_size * counts_impurity(spec, left)
        + n_right / dataset_size * counts_impurity(spec, right)
    )


def risk_reduction(
    spec: CriterionSpec,
    parent: ClassHistogram,
    left: ClassHistogram,
    right: ClassHistogram,
    dataset_size: int,
) -> float:
    """Drop in minimum (weighted) risk achieved by splitting parent into left/right.

    Nonnegative for every supported criterion because each impurity is
    concave in p.  For conservative criteria the value is computed from
    integer count maxima, so the zero of the stopping rule is exact.
    """
    if not np.array_equal(left.counts + right.counts, parent.counts):
        raise PartitionError("left + right counts must equal parent counts")
    if left.total == 0 or right.total == 0:
        raise EmptyHistogramError("risk reduction needs nonempty children")
    if spec.kind == "twoing":
        raise ValueError("twoing defines a split score, not a risk reduction")
    _whole("dataset_size", dataset_size, parent.total)
    return float(split_scores(spec, parent.counts, left.counts, dataset_size))


def twoing_score(
    left: ClassHistogram | np.ndarray,
    right: ClassHistogram | np.ndarray,
    dataset_size: int,
) -> float | np.ndarray:
    """Twoing split score (W_L W_R / 4) * (sum_k |p_L(k) - p_R(k)|)^2.

    Maximized in place of risk reduction when the criterion kind is
    ``twoing``; zero exactly when both children carry the same class
    distribution.  Accepts stacked count matrices for vectorized use.  An
    empty child raises ``EmptyHistogramError``, as in :func:`risk_reduction`.
    """
    lc = np.asarray(left.counts if isinstance(left, ClassHistogram) else left)
    rc = np.asarray(right.counts if isinstance(right, ClassHistogram) else right)
    _whole("dataset_size", dataset_size, int(_class_sum(lc + rc).max()))
    if not ((_class_sum(lc) > 0) & (_class_sum(rc) > 0)).all():
        raise EmptyHistogramError("twoing score needs nonempty children")
    score = split_scores(CriterionSpec("twoing"), lc + rc, lc, dataset_size)
    return float(score) if np.ndim(score) == 0 else score


def optimal_constant_prediction(spec: CriterionSpec, hist: ClassHistogram) -> np.ndarray:
    """Probability vector minimizing the node's constant-prediction risk.

    Conservative criteria and NE concentrate on the majority class
    (lowest index wins ties); gini and entropy return p itself; gce with
    q in (0, 1) returns the power-normalized vector
    p_j^{1/(1-q)} / sum_k p_k^{1/(1-q)}.
    """
    p = hist.probabilities()
    kind = spec.kind
    if spec.is_conservative or kind == "ne":
        out = np.zeros_like(p)
        out[int(np.argmax(p))] = 1.0
        return out
    if kind in ("gini", "entropy") or (kind == "gce" and spec.q == 0.0):
        return p
    if kind == "gce":
        w = np.power(p, 1.0 / (1.0 - spec.q))
        return w / w.sum()
    raise ValueError(f"criterion {spec.label()} has no optimal constant prediction")


# ---------------------------------------------------------------------------
# Margin losses built from an assumed margin CDF, and the lambda <-> mu map.
# ---------------------------------------------------------------------------

CDF_KINDS = ("bernoulli", "logistic", "uniform", "shifted_negexp")


@dataclass(frozen=True)
class CdfSpec:
    """Margin distribution whose CDF induces the loss F(-z).

    ``bernoulli`` is the point mass at zero (01 loss, with the half-point
    convention at z = 0), ``logistic`` the standard logistic (sigmoid loss),
    ``uniform`` the U(-1, 1) ramp loss, and ``shifted_negexp`` the shifted
    negative of a unit exponential variable, giving min{1, exp(-z - mu)}.
    """

    kind: str
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in CDF_KINDS:
            raise ValueError(f"unknown cdf kind: {self.kind!r}")
        if self.kind == "shifted_negexp":
            _interval("mu", self.mu, 0.0, brackets="[)")
        elif self.mu is not None:
            raise ValueError(f"cdf {self.kind!r} takes no mu parameter")


def distribution_loss(cdf: CdfSpec, margin: float) -> float:
    """Loss F(-z) for margin z = y * yhat in [-inf, inf]; non-increasing, valued in [0, 1]."""
    z = float(_interval("margin", margin, -math.inf))
    if cdf.kind == "bernoulli":
        return 0.5 * (1.0 - float(np.sign(z)))
    if cdf.kind == "logistic":
        # 1 / (1 + e^z), computed stably for large |z|
        if z >= 0:
            return math.exp(-z) / (1.0 + math.exp(-z))
        return 1.0 / (1.0 + math.exp(z))
    if cdf.kind == "uniform":
        return min(1.0, max(0.0, (1.0 - z) / 2.0))
    if cdf.kind == "shifted_negexp":
        exponent = -z - cdf.mu
        return 1.0 if exponent >= 0.0 else math.exp(exponent)
    raise ValueError(f"unknown cdf kind: {cdf.kind!r}")


def lambda_from_mu(mu: float) -> float:
    """lambda = 2 e^{-mu} for a finite mu >= 0; mu >= ln 2 gives lambda <= 1."""
    return 2.0 * math.exp(-_interval("mu", mu, 0.0, brackets="[)"))


def mu_from_lambda(lam: float) -> float:
    """Inverse map mu = ln(2 / lambda) for lambda in (0, 1]."""
    return math.log(2.0 / _interval("lambda", lam, 0.0, 1.0, "(]"))
