"""One benchmark run in a fresh interpreter: set up a workload, then time passes.

run.py starts this script with the thread environment fixed and reads the JSON
it writes to ``--out``.  Set-up -- interpreter start, imports, input generation
and a warm-up pass on a tiny instance -- ends when ``setup_s`` is taken;
``--setup-only`` stops there.  Every pass repeats the workload's operations on
the same inputs, so every pass, traced or not, must give the same fingerprints.

The package is called through module attributes (``tree.fit``, ``cli.main``,
...) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import synth  # noqa: E402
from robust_trees import cli, criteria, dataeng, forest, noise, parallel, tree  # noqa: E402
from robust_trees.criteria import CriterionSpec  # noqa: E402
from robust_trees.forest import ForestParams  # noqa: E402
from robust_trees.tree import TreeParams  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

# The tables, the 80/20 split and the rows queried one at a time are fixed;
# the workload seed draws the label noise and the package's own seeds.
SPLIT_SEED = 0
TABLE_SEED = 12345
QUERY_SEED = 1


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def flip_labels(labels: np.ndarray, eta: float, seed) -> np.ndarray:
    """Binary uniform noise drawn by the benchmark, not by the package."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random(labels.shape[0]) < eta, 1 - labels, labels)


def seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


class Pass:
    """Timings, outputs and operation counts of one pass.

    ``fit_s`` is the pass's total fit time.  Serving is timed per unit of
    work that repeats identically in every round of every pass -- a model's
    JSON round trip, its batch predict, one single-row call -- so that the
    run can keep each unit's fastest repetition.
    """

    def __init__(self, tracer: Tracer | None, index: int):
        self.tracer = tracer
        self.index = index
        self.fit_s = 0.0
        self.wall = 0.0
        self.io_s: dict[str, list[float]] = {}
        self.batch_s: dict[str, list[float]] = {}
        self.batch_rows: dict[str, int] = {}  # model -> rows in one batch predict
        self.single_ns: dict[tuple[str, int], list[int]] = {}
        self.forest_json_bytes = 0
        self.fingerprints: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.ok = True
        self.fits: list[tuple[str, object, np.ndarray, np.ndarray]] = []  # for replay

    def begin(self, name: str) -> str:
        """Count one operation and label the spans it causes."""
        self.attempted += 1
        op_id = f"p{self.index}/{name}"
        if self.tracer is not None:
            self.tracer.op = op_id
        return op_id

    def record(self, key: str, fingerprint: str) -> None:
        """Keep an output's fingerprint; a model served twice in a pass must
        give the same outputs both times."""
        if self.fingerprints.setdefault(key, fingerprint) != fingerprint:
            print(f"pass {self.index}: {key} changed within the pass", file=sys.stderr)
            self.failed += 1

    @contextmanager
    def fit(self, name: str):
        """Count and time one fit; an exception propagates and ends the pass."""
        op_id = self.begin(f"fit/{name}")
        gc.collect()
        start = time.perf_counter()
        yield op_id
        self.fit_s += time.perf_counter() - start


def _api(model):
    """(to_dict, from_dict, batch predict, single predict) for a model."""
    if isinstance(model, forest.Forest):
        return (forest.forest_to_dict, forest.forest_from_dict,
                forest.predict_forest_batch, forest.predict_forest)
    return tree.tree_to_dict, tree.tree_from_dict, tree.predict_batch, tree.predict


def serve(p: Pass, name: str, model, X: np.ndarray, rows: np.ndarray, rounds: int):
    """Serve one model for ``rounds`` rounds; returns its batch prediction.

    A round round-trips the model through JSON text, batch-predicts every row
    of X with the reloaded model and predicts the given rows one at a time.
    Every round must give the first round's JSON text and predictions, and
    each single-row answer must equal the batch answer for its row exactly.
    """
    to_dict, from_dict, batch, one = _api(model)
    io_s, batch_s = p.io_s.setdefault(name, []), p.batch_s.setdefault(name, [])
    first = None
    for _ in range(rounds):
        gc.collect()  # every round starts from the same collector state
        p.begin(f"io/{name}")
        start = time.perf_counter()
        text = json.dumps(to_dict(model))
        back = from_dict(json.loads(text))
        io_s.append(time.perf_counter() - start)

        p.begin(f"batch/{name}")
        start = time.perf_counter()
        classes, dists = batch(back, X)
        batch_s.append(time.perf_counter() - start)

        if first is None:
            first = text, classes, dists
            if json.dumps(to_dict(back)) != text:
                print(f"model {name}: JSON round trip is not byte-identical", file=sys.stderr)
                p.failed += 1
        elif not (text == first[0] and np.array_equal(classes, first[1])
                  and np.array_equal(dists, first[2])):
            print(f"model {name}: a later round gave other outputs", file=sys.stderr)
            p.failed += 1

        p.begin(f"single/{name}")
        p.attempted += rows.shape[0] - 1
        labels = np.empty(rows.shape[0], dtype=np.int64)
        for i, r in enumerate(rows):
            x = X[r]
            start = time.perf_counter_ns()
            label, dist = one(back, x)
            p.single_ns.setdefault((name, i), []).append(time.perf_counter_ns() - start)
            if label != classes[r] or not np.array_equal(dist, dists[r]):
                p.failed += 1
            labels[i] = label

    text, classes, dists = first
    if isinstance(model, forest.Forest):
        p.forest_json_bytes += len(text)
    p.batch_rows[name] = X.shape[0]
    p.record(f"model/{name}", digest(text.encode()))
    p.record(f"pred/{name}", digest(classes, dists))
    p.record(f"single/{name}", digest(labels))
    return classes, dists


class _OneHotTable:
    """The synthetic one-hot table, its fixed 80/20 split and single-row picks."""

    def __init__(self, n: int, single_calls: int):
        self.X, self.y = synth.separable_categorical(n=n, seed=TABLE_SEED)
        perm = np.random.default_rng(SPLIT_SEED).permutation(n)
        n_train = int(n * 0.8)
        self.train, self.test = perm[:n_train], perm[n_train:]
        self.Xtr = self.X[self.train]
        self.rows = np.random.default_rng(QUERY_SEED).integers(0, n, size=single_calls)

    def accuracy(self, classes: np.ndarray) -> float:
        return float((classes[self.test] == self.y[self.test]).mean())


# Workload sizes: "full" is measured, "small" serves the harness self-test and
# "warm" is the warm-up pass that ends set-up.


class TreeFit:
    """Single trees, four criteria, two draws of 40% uniform label noise."""

    CRITERIA = (CriterionSpec("entropy"), CriterionSpec("ne", lam=0.5),
                CriterionSpec("misclassification"), CriterionSpec("twoing"))
    ETA = 0.4
    PASS_SECONDS = 20.0  # one full-size pass on a 2-CPU machine, for planning
    N = {"full": 8124, "small": 600, "warm": 200}
    SINGLE = {"full": 2000, "small": 1000, "warm": 20}
    ROUNDS = {"full": 4, "small": 1, "warm": 1}

    def __init__(self, seed: int, size: str, work: Path):
        self.rounds = self.ROUNDS[size]
        draws = np.random.SeedSequence(seed).spawn(2)
        self.data = _OneHotTable(self.N[size], self.SINGLE[size])
        self.noisy = [flip_labels(self.data.y[self.data.train], self.ETA, s) for s in draws]

    def run_pass(self, p: Pass) -> float:
        # A tree's serving rounds are spread over the fits that follow its
        # own, so that each query row is timed at several separate moments.
        accuracies, owed = [], []
        rows = np.array_split(self.data.rows, len(self.noisy) * len(self.CRITERIA))
        for d, labels in enumerate(self.noisy):
            for spec in self.CRITERIA:
                name = f"{spec.label()}/draw{d}"
                with p.fit(name) as op_id:
                    fitted = tree.fit(self.data.Xtr, labels, TreeParams(spec))
                p.fits.append((op_id, fitted, self.data.Xtr, labels))
                owed.append([self.rounds, name, fitted, rows[len(accuracies)]])
                for item in owed:  # the newest tree comes last
                    left, served, model, query = item
                    if left:
                        classes, _ = serve(p, served, model, self.data.X, query, 1)
                        item[0] -= 1
                accuracies.append(self.data.accuracy(classes))
        for left, served, model, query in owed:
            for _ in range(left):
                serve(p, served, model, self.data.X, query, 1)
        return float(np.mean(accuracies))


class ForestFit:
    """An entropy forest with library defaults at 20% uniform label noise."""

    ETA = 0.2
    PASS_SECONDS = 3.0
    N = {"full": 8124, "small": 600, "warm": 200}
    TREES = {"full": 4, "small": 3, "warm": 2}
    SINGLE = {"full": 1000, "small": 1000, "warm": 20}
    ROUNDS = {"full": 3, "small": 1, "warm": 1}

    def __init__(self, seed: int, size: str, work: Path):
        self.rounds = self.ROUNDS[size]
        draw, forest_seed = np.random.SeedSequence(seed).spawn(2)
        self.data = _OneHotTable(self.N[size], self.SINGLE[size])
        self.noisy = flip_labels(self.data.y[self.data.train], self.ETA, draw)
        self.params = ForestParams(TreeParams(CriterionSpec("entropy")),
                                   n_trees=self.TREES[size], rng_seed=seed_int(forest_seed))

    def run_pass(self, p: Pass) -> float:
        with p.fit("forest"):
            fitted = forest.fit_forest(self.data.Xtr, self.noisy, self.params)
        classes, _ = serve(p, "forest", fitted, self.data.X, self.data.rows, self.rounds)
        return self.data.accuracy(classes)


class Grid:
    """``robust-trees train`` of one tree on a 3-class Gaussian CSV and
    ``robust-trees bench`` on the same CSV; the tree is served."""

    PASS_SECONDS = 9.5
    CENTERS = np.array([[0.0] * 8, [2.5] + [0.0] * 7, [0.0, 2.5] + [0.0] * 6])
    PER_CLASS = {"full": 2000, "small": 150, "warm": 30}
    REPLICATIONS = {"full": 2, "small": 1, "warm": 1}
    SINGLE = {"full": 2000, "small": 1000, "warm": 20}
    ROUNDS = {"full": 10, "small": 1, "warm": 1}
    DATA_SEED = 7  # fixed, so that the served tree is the same for every seed

    def __init__(self, seed: int, size: str, work: Path):
        self.rounds = self.ROUNDS[size]
        split_seed, grid_seed, train_seed = (
            seed_int(s) for s in np.random.SeedSequence(seed).spawn(3))
        self.X, y = synth.gaussian_blobs(self.PER_CLASS[size], self.CENTERS, seed=self.DATA_SEED)
        self.rows = np.random.default_rng(QUERY_SEED).integers(
            0, self.X.shape[0], size=self.SINGLE[size])
        self.csv = work / f"grid-{size}.csv"
        synth.write_csv(self.csv, self.X, y)
        self.config = work / f"grid-{size}.json"
        self.config.write_text(json.dumps({
            "dataset": {"name": "blobs", "path": self.csv.name, "format": "csv"},
            "split": {"train_fraction": 0.8, "seed": split_seed},
            "noise": [{"kind": "uniform", "eta": 0.3}, {"kind": "mahalanobis"}],
            "criteria": [{"kind": "ane"}, {"kind": "misclassification"},
                         {"kind": "entropy"}, {"kind": "gce", "q": 0.7}],
            "model": {"kind": "tree"},
            "replications": self.REPLICATIONS[size],
            "seed": grid_seed,
        }), encoding="utf-8")
        self.results = work / f"grid-{size}-results.csv"
        self.summary = work / f"grid-{size}-summary.csv"
        self.model = work / f"grid-{size}-model.json"
        self.train_seed = train_seed

    def _cli(self, argv: list[str]) -> None:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"robust-trees {argv[0]} exited with {code}")

    def run_pass(self, p: Pass) -> float:
        # The trained tree is served both before and after the bench run, so
        # that serving is sampled at two times in every pass.
        with p.fit("train"):
            self._cli(["train", "--data", str(self.csv), "--format", "csv",
                       "--criterion", "gce", "--q", "0.7", "--seed", str(self.train_seed),
                       "--out", str(self.model)])
        model = tree.load_tree(self.model)
        serve(p, "train", model, self.X, self.rows, self.rounds)
        with p.fit("bench"):
            self._cli(["bench", "--config", str(self.config), "--out", str(self.results),
                       "--summary", str(self.summary)])
        p.record("bench/results", digest(self.results.read_bytes()))
        p.record("bench/summary", digest(self.summary.read_bytes()))
        serve(p, "train", model, self.X, self.rows, self.rounds)
        with open(self.results, encoding="utf-8", newline="") as fh:
            return float(np.mean([float(r["accuracy"]) for r in csv.DictReader(fh)]))


WORKLOADS = {"tree-fit": TreeFit, "forest": ForestFit, "grid": Grid}


def pass_count(kind, seconds: float) -> int:
    """Passes in a run of ``seconds``: the same for every run of a workload,
    so that every run does the same work."""
    return max(1, math.floor(seconds / kind.PASS_SECONDS + 0.5))


def run_passes(workload, count: int, tracer: Tracer | None = None,
               first: int = 0) -> list[Pass]:
    """Run ``count`` passes, stopping early after a failure."""
    passes: list[Pass] = []
    for index in range(first, first + count):
        p = Pass(tracer, index)
        t0 = time.perf_counter()
        try:
            accuracy = workload.run_pass(p)
            p.fingerprints["test_accuracy"] = repr(accuracy)
        except Exception:
            traceback.print_exc()
            p.failed += 1
            p.ok = False
        p.wall = time.perf_counter() - t0
        if passes:
            passes[-1].fits.clear()  # only the last pass's fits are replayed
        passes.append(p)
        if not p.ok:
            break
    return passes


# ---------------------------------------------------------------------------
# Tracing targets and per-layer metrics
# ---------------------------------------------------------------------------

def _nth(i: int, key: str):
    return lambda args, kwargs: args[i] if len(args) > i else kwargs[key]


def trace_targets():
    counts_arg, features_arg, labels_arg, path_arg = (
        _nth(1, "counts"), _nth(1, "features"), _nth(0, "labels"), _nth(0, "path"))
    return [
        (criteria, "counts_impurity",
         lambda a, k, r: int(np.size(counts_arg(a, k)) // np.shape(counts_arg(a, k))[-1])),
        (tree, "fit", lambda a, k, r: tree.tree_stats(r)["node_count"]),
        (tree, "predict_batch", lambda a, k, r: len(features_arg(a, k))),
        (forest, "fit_forest", None),
        (forest, "forest_to_dict", None),
        (forest, "forest_from_dict", None),
        (parallel, "worker_count", lambda a, k, r: r),
        (noise, "corrupt", lambda a, k, r: len(labels_arg(a, k))),
        (noise, "mahalanobis_matrix", None),
        (dataeng, "load_csv", lambda a, k, r: os.path.getsize(path_arg(a, k))),
        (dataeng, "tune_lambda", None),
        (dataeng, "evaluate", None),
        (cli, "main", None),
    ]


def replay(model, X: np.ndarray, y: np.ndarray) -> tuple[int, int, int]:
    """Route the training rows through a fitted tree (default TreeParams).

    Returns (splittable nodes, candidates, valid candidates): a node is
    splittable when it holds two or more classes; its split search sees
    (rows - 1) * d candidate positions, of which the valid ones lie between
    distinct feature values.  Nodes without a valid position are not scored
    and count no candidates.
    """
    nodes = tree.tree_to_dict(model)["nodes"]
    splittable = candidates = valid = 0
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        nid, idx = stack.pop()
        if idx.size >= 2 and np.unique(y[idx]).size > 1:
            splittable += 1
            s = np.sort(X[idx], axis=0)
            v = int(np.count_nonzero(s[1:] != s[:-1]))
            if v:
                candidates += (idx.size - 1) * X.shape[1]
                valid += v
        node = nodes[nid]
        if node["kind"] == "split":
            mask = X[idx, node["feature"]] <= node["threshold"]
            stack += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
    return splittable, candidates, valid


def split_metrics(spans, last: Pass) -> tuple[dict, int]:
    """Split-search counts of the last traced pass, and how many fits break
    the cross-check with the vectors ``counts_impurity`` was given."""
    vectors: dict[str, float] = {}
    for s in spans:
        if s.name == "criteria.counts_impurity":
            vectors[s.op] = vectors.get(s.op, 0) + s.count
    total_cand = total_valid = broken = 0
    for op_id, model, X, y in last.fits:
        splittable, cand, valid = replay(model, X, y)
        total_cand += cand
        total_valid += valid
        seen = vectors.get(op_id, 0)
        # Criteria scored by impurity ask for one parent vector per splittable
        # node and a left and a right vector per scored candidate; a search
        # may skip invalid candidates but never valid ones.
        if seen and not (2 * valid - splittable <= seen <= 2 * cand + splittable):
            print(f"{op_id}: counts_impurity saw {seen} vectors; replay gives "
                  f"{splittable} splittable nodes, {cand} candidates, {valid} valid",
                  file=sys.stderr)
            broken += 1
    return {
        "tree.split_candidates": total_cand,
        "tree.split_candidates_valid": total_valid,
        "tree.split_useful_frac": total_valid / total_cand if total_cand else 0.0,
    }, broken


def layer_metrics(spans, untraced: list[Pass], traced: list[Pass]) -> dict:
    """Per-pass averages over the traced passes."""
    n = len(traced)
    selfs = self_times(spans)

    def pick(name, via=None):
        return [s for s in spans if s.name == name and (via is None or s.via == via)]

    def busy(ss):
        return sum(s.end - s.start for s in ss) / n

    def cpu(ss):
        return sum(s.cpu for s in ss) / n

    def count(ss):
        return sum(s.count for s in ss) / n

    def self_s(ss):
        return sum(selfs[s.id] for s in ss) / n

    impurity, fits = pick("criteria.counts_impurity"), pick("tree.fit")
    forest_fits, batch = pick("tree.fit", via="forest"), pick("tree.predict_batch")
    tune = pick("dataeng.tune_lambda")
    nodes = count(fits)
    return {
        "criteria.counts_impurity.calls": len(impurity) / n,
        "criteria.counts_impurity.vectors": count(impurity),
        "criteria.counts_impurity.busy_s": busy(impurity),
        "tree.fit.calls": len(fits) / n,
        "tree.fit.busy_s": busy(fits),
        "tree.fit.self_s": self_s(fits),
        "tree.nodes": nodes,
        "tree.fit.self_us_per_node": self_s(fits) / nodes * 1e6 if nodes else 0.0,
        "forest.tree_fit.busy_s": busy(forest_fits),
        "forest.tree_fit.cpu_s": cpu(forest_fits),
        "forest.tree_fit.wait_s": busy(forest_fits) - cpu(forest_fits),
        "parallel.workers": max((s.count for s in pick("parallel.worker_count")), default=0),
        "tree.predict_batch.calls": len(batch) / n,
        "tree.predict_batch.rows": count(batch),
        "tree.predict_batch.busy_s": busy(batch),
        "forest.forest_to_dict.busy_s": busy(pick("forest.forest_to_dict")),
        "forest.forest_from_dict.busy_s": busy(pick("forest.forest_from_dict")),
        "forest.model_json_bytes": statistics.mean(p.forest_json_bytes for p in traced),
        "noise.corrupt.rows": count(pick("noise.corrupt")),
        "noise.corrupt.busy_s": busy(pick("noise.corrupt")),
        "noise.mahalanobis_matrix.busy_s": busy(pick("noise.mahalanobis_matrix")),
        "dataeng.load_csv.bytes": count(pick("dataeng.load_csv")),
        "dataeng.load_csv.busy_s": busy(pick("dataeng.load_csv")),
        "dataeng.tune_lambda.calls": len(tune) / n,
        "dataeng.tune_lambda.busy_s": busy(tune),
        "dataeng.tune_lambda.wait_s": busy(tune) - cpu(tune),
        "dataeng.evaluate.busy_s": busy(pick("dataeng.evaluate")),
        "cli.main.self_s": self_s(pick("cli.main")),
        "trace.overhead_frac": (statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in untraced)),
    }


def _fastest(passes: list[Pass], attr: str) -> dict:
    """Work unit -> its fastest repetition over every round of every pass."""
    best: dict = {}
    for p in passes:
        for key, samples in getattr(p, attr).items():
            best[key] = min(best.get(key, samples[0]), *samples)
    return best


def end_to_end_metrics(passes: list[Pass]) -> dict:
    single_us = np.asarray(list(_fastest(passes, "single_ns").values())) / 1000.0
    return {
        "fit_s": statistics.median(p.fit_s for p in passes),
        "model_io_s": sum(_fastest(passes, "io_s").values()),
        "predict_rows_per_s": (sum(passes[0].batch_rows.values())
                               / sum(_fastest(passes, "batch_s").values())),
        "predict_one_p50_us": float(np.percentile(single_us, 50)),
        "test_accuracy": float(passes[0].fingerprints["test_accuracy"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "worker_count": parallel.worker_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def check_same(reference: dict, passes: list[Pass]) -> int:
    """Count outputs of later passes that differ from the reference pass."""
    bad = 0
    for p in passes:
        diff = sorted(k for k in reference.keys() | p.fingerprints.keys()
                      if reference.get(k) != p.fingerprints.get(k))
        if diff:
            print(f"pass {p.index}: outputs differ from pass 0: {diff}", file=sys.stderr)
        bad += len(diff)
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced inputs for the harness self-test")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before the process was started")
    ap.add_argument("--work", type=Path, required=True, help="scratch directory")
    ap.add_argument("--out", type=Path, required=True, help="result JSON path")
    ap.add_argument("--trace-file", type=Path, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, args.size, args.work)
    run_passes(kind(args.seed, "warm", args.work), 1)
    result = {"setup_s": time.monotonic() - args.t0, "env": environment()}
    if args.setup_only:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    count = pass_count(kind, args.seconds)
    if args.trace:
        untraced = run_passes(workload, max(1, count // 2))
        tracer = Tracer()
        tracer.install(trace_targets())
        try:
            traced = run_passes(workload, max(1, count - count // 2), tracer,
                                first=len(untraced))
        finally:
            not_restored = tracer.restore()
        if not_restored:
            print(f"bindings not restored: {not_restored}", file=sys.stderr)
        if args.trace_file is not None:
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "env": result["env"]})
        passes = untraced + traced
    else:
        untraced = traced = passes = run_passes(workload, count)
        not_restored = []

    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(p.failed for p in passes) + len(not_restored)
    result["passes"] = len(passes)
    if all(p.ok for p in passes):
        result["fingerprints"] = passes[0].fingerprints
        result["failed"] += check_same(passes[0].fingerprints, passes[1:])
        if args.trace:
            layers, broken = split_metrics(tracer.spans, traced[-1])
            layers.update(layer_metrics(tracer.spans, untraced, traced))
            result["per_layer"] = layers
            result["failed"] += broken
        else:
            result["end_to_end"] = end_to_end_metrics(passes)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
