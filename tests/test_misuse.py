"""Misuse net: mutated inputs of every command fail in one line, never with a
traceback or a hang.

Each case mutates a valid input of :func:`robust_trees.cli.main` -- a tree or
a forest model through ``predict``, a ``bench`` config, the flags of
``train``, ``tune`` and ``noise``, or the rows of a CSV or LIBSVM file
through ``train`` and ``predict`` -- by type swaps, NaN and inf, 2**63 and
2**70, deleted keys, unknown keys and dropped columns.  It runs in process,
with ``dataeng._usable_cpus`` patched to 1 so that ``bench`` starts no worker
process, and under a ``signal.setitimer`` budget whose handler raises
:class:`_Hang`, a ``BaseException`` that no ``except`` of the package catches
(a ``TimeoutError`` is an ``OSError``, which ``main`` reports as exit 1, so a
hang would pass).  A case passes when ``main`` returns 0 with one JSON line
on stdout, or 1 with exactly one ``error:`` line on stderr, or exits 2 with
argparse's usage block and then one ``error:`` line; any exception that
escapes ``main`` fails it.

No mutation is a count that fits int64 but not memory: 2**62 trees or
replications allocate before they fail, so such values are never run (see
README.md).  The examples are derandomized, so every run checks the same
cases; raise ``_EXAMPLES`` for a wider search.
"""

import copy
import io
import json
import math
import signal
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_trees import dataeng
from robust_trees.cli import main
from robust_trees.criteria import CriterionSpec
from robust_trees.forest import ForestParams, fit_forest, forest_to_dict
from robust_trees.tree import TreeParams, fit, tree_to_dict

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="the time budget needs signal.setitimer")

_EXAMPLES = 60
_BUDGET_S = 10.0
_NET = settings(max_examples=_EXAMPLES, derandomize=True, deadline=None)

# what a JSON value or a flag's value is swapped for
_VALUES = [None, True, "x", "", [], {}, 0, -1, 1, 0.5, math.nan, math.inf, -math.inf,
           2**63, 2**70]
_TOKENS = ["nan", "inf", "-inf", "-1", "0", "1", "0.5", "1e999", str(2**63), str(2**70), "x", ""]
_CELLS = ["nan", "inf", "-inf", "", "x", "1e999", str(2**63), str(2**70), '"', "\x00"]
_LIBSVM_TOKENS = ["nan", "x", "1", ":", "1:", ":1", "0:1", "-1:1", "1:nan", "1:inf", "1:x",
                  f"{2**63}:1", f"{2**70}:1", "3:1"]


class _Hang(BaseException):
    """A case ran past its time budget."""


def _hang(signum, frame):
    raise _Hang(f"a case ran past {_BUDGET_S} s")


def _run(argv: list[str]) -> None:
    """Run ``main(argv)`` and check its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, _BUDGET_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's exit
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), out
        return
    assert out == ""
    lines = err.split("\n")
    assert lines[-1] == "", err
    if code == 1:
        assert len(lines) == 2 and lines[0].startswith("error: "), err
    else:
        assert lines[0].startswith("usage: ") and ": error: " in lines[-2], err
        assert sum(": error: " in line for line in lines) == 1, err


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory, also the working one, with valid inputs to mutate: the
    data files, a tree and a forest model fitted on them, and a bench config."""
    path = tmp_path_factory.mktemp("misuse")
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(0.0, 1.0, (18, 2)) + np.repeat([[0, 0], [3, 0], [0, 3]], 6, axis=0),
                 3)
    y = np.repeat([0, 1, 2], 6)
    rows = [[repr(a), repr(b), "abc"[c]] for (a, b), c in zip(X.tolist(), y)]
    base = {
        "csv": [["f0", "f1", "label"], *rows[:12]],
        "csv3": [["f0", "f1", "label"], *rows],
        "libsvm": [[str(c), f"1:{a}", f"2:{b}"] for (a, b), c in zip(X[:12].tolist(), y)],
    }
    (path / "two.csv").write_text("".join(",".join(r) + "\n" for r in base["csv"]))
    (path / "three.csv").write_text("".join(",".join(r) + "\n" for r in base["csv3"]))
    spec = CriterionSpec("gini")
    base["tree"] = tree_to_dict(fit(X[:12], y[:12], TreeParams(spec)))
    base["forest"] = forest_to_dict(fit_forest(X[:12], y[:12], ForestParams(TreeParams(spec),
                                                                             n_trees=2)))
    base["config"] = {
        "dataset": {"path": "two.csv", "format": "csv", "label_column": "label"},
        "split": {"train_fraction": 0.75, "seed": 0},
        "tuning": {"grid": [0.5, 1.0], "validation_fraction": 0.25},
        "criteria": [{"kind": "ane"}, {"kind": "gce", "q": 0.5}],
        "noise": [{"kind": "uniform", "eta": 0.1}],
        "model": {"kind": "forest", "n_trees": 2, "max_depth": 3},
        "replications": 1,
        "seed": 0,
    }
    for kind in ("tree", "forest"):
        (path / f"{kind}.json").write_text(json.dumps(base[kind]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataeng, "_usable_cpus", lambda: 1)
        patch.chdir(path)  # a flag's value swapped for a bare name writes here
        yield path, base


def _paths(doc, at=()):
    """Every path into a JSON document, the root's ``()`` first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*at, key))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two of: a value swapped for one of ``_VALUES``, a
    key or an entry deleted, an unknown key added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.sampled_from(list(_paths(doc))))
        value = copy.deepcopy(draw(st.sampled_from(_VALUES)))  # a later add may fill a {}
        if not at:
            doc = value
            continue
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["swap", "delete", "add"]))
        if op == "delete":
            del parent[at[-1]]
        elif op == "add" and isinstance(parent[at[-1]], dict):
            parent[at[-1]]["bogus"] = 1
        else:
            parent[at[-1]] = value
    return doc


@st.composite
def _mutated_flags(draw, argv):
    """``argv`` (a command and then flag/value pairs) with one or two of: a
    value swapped for one of ``_TOKENS``, a flag and its value dropped, an
    unknown flag added."""
    argv = list(argv)
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["swap", "drop", "add"]))
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        if op == "add" or not flags:
            argv.insert(draw(st.integers(1, len(argv))), "--bogus")
            continue
        i = draw(st.sampled_from(flags))
        takes_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        if op == "drop":
            del argv[i:i + 1 + takes_value]
        elif takes_value:
            argv[i + 1] = draw(st.sampled_from(_TOKENS))
    return argv


@st.composite
def _mutated_rows(draw, rows, tokens):
    """``rows`` (lists of tokens) with one to three of: a token swapped for
    one of ``tokens``, a token dropped from one row or a column from all, a
    row deleted."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["swap", "drop", "column", "row"]))
        r = draw(st.integers(0, len(rows) - 1)) if rows else None
        if r is None or not rows[r]:
            continue
        c = draw(st.integers(0, len(rows[r]) - 1))
        if op == "swap":
            rows[r][c] = draw(st.sampled_from(tokens))
        elif op == "drop":
            del rows[r][c]
        elif op == "column":
            rows = [row[:c] + row[c + 1:] for row in rows]
        else:
            del rows[r]
    return rows


def _write(path, text: str):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("kind", ["tree", "forest"])
@_NET
@given(data=st.data())
def test_a_mutated_model_through_predict(work, kind, data):
    path, base = work
    model = _write(path / "model.json", json.dumps(data.draw(_mutated(base[kind]))))
    _run(["predict", "--data", "two.csv", "--format", "csv", "--model", model,
          "--out", "predictions.csv"])


@_NET
@given(data=st.data())
def test_a_mutated_bench_config(work, data):
    path, base = work
    config = _write(path / "config.json", json.dumps(data.draw(_mutated(base["config"]))))
    _run(["bench", "--config", config, "--out", "results.csv"])


_FLAGS = {
    "train": ["train", "--data", "two.csv", "--format", "csv", "--criterion", "gce",
              "--q", "0.5", "--forest", "--trees", "2", "--max-depth", "3",
              "--min-samples-leaf", "1", "--feature-subsample", "1", "--seed", "0",
              "--out", "model.json"],
    "train-ne": ["train", "--data", "two.csv", "--format", "csv", "--criterion", "ne",
                 "--lambda", "0.5", "--no-bootstrap", "--seed", "1", "--out", "model.json"],
    "tune": ["tune", "--data", "two.csv", "--format", "csv", "--grid", "0,1",
             "--validation-fraction", "0.25", "--max-depth", "2", "--seed", "0"],
    "noise-mahalanobis": ["noise", "--data", "three.csv", "--format", "csv",
                          "--kind", "mahalanobis", "--ridge", "0.1", "--seed", "0",
                          "--matrix-out", "matrix.csv", "--out", "noisy.csv"],
    "noise-uniform": ["noise", "--data", "three.csv", "--format", "csv", "--kind", "uniform",
                      "--eta", "0.2", "--label-column", "label", "--out", "noisy.csv"],
    "noise-binary": ["noise", "--data", "two.csv", "--format", "csv", "--kind", "binary_cc",
                     "--rho-pos", "0.1", "--rho-neg", "0.2", "--seed", "3"],
}


@pytest.mark.parametrize("command", list(_FLAGS))
@_NET
@given(data=st.data())
def test_mutated_flags(work, command, data):
    _run(data.draw(_mutated_flags(_FLAGS[command])))


@pytest.mark.parametrize("fmt", ["csv", "libsvm"])
@_NET
@given(data=st.data())
def test_mutated_rows_through_train_and_predict(work, fmt, data):
    path, base = work
    sep, tokens = ("," if fmt == "csv" else " "), (_CELLS if fmt == "csv" else _LIBSVM_TOKENS)
    rows = data.draw(_mutated_rows(base[fmt], tokens))
    text = _write(path / f"data.{fmt}", "".join(sep.join(row) + "\n" for row in rows))
    _run(["train", "--data", text, "--format", fmt, "--criterion", "entropy",
          "--out", "model.json"])
    model = "forest.json" if data.draw(st.booleans()) else "tree.json"
    _run(["predict", "--data", text, "--format", fmt, "--model", model])
    if fmt == "csv":
        _run(["predict", "--data", text, "--format", fmt, "--model", model, "--no-labels"])
