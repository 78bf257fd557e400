"""Exception types and the input checks shared across the package: every
JSON file (a model or a config) is read by :func:`_load_json`, every JSON
object read from outside (a model, a config or one of its sections) goes
through :func:`_read`, which checks its keys and renames them, every vector
of class labels through :func:`_labels`, every type check names its type
from the one vocabulary ``_TYPE_NAMES``, and every scalar range rule (whole
numbers, intervals, class counts, probability vectors) lives here."""

import json
from dataclasses import MISSING, fields
from numbers import Integral, Real

import numpy as np


class EmptyHistogramError(ValueError):
    """Raised when an operation needs at least one sample but the histogram is empty."""


class PartitionError(ValueError):
    """Raised when child histograms do not partition their parent."""


_TYPE_NAMES = {Real: "a real number", Integral: "an integer", bool: "true or false",
               str: "a string", dict: "a JSON object", list: "a JSON array"}


def _wrong_type(what: str, value, kind: type) -> ValueError:
    return ValueError(f"{what} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")


def _check_type(what: str, value, kind: type, optional: bool = False):
    """``value`` if it is a ``kind`` (a key of ``_TYPE_NAMES``), or None when
    ``optional``, else ``ValueError`` naming ``what``.  A bool is no number here."""
    if value is None and optional:
        return value
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise _wrong_type(what, value, kind)
    return value


def _load_json(path, what: str):
    """The JSON value in the file at ``path``, or a one-line ``ValueError``
    naming the file as ``what`` when it is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{what} {path} is not UTF-8 JSON: {exc}") from None


def _whole(what: str, value, low: int, optional: bool = False):
    """``value`` if an integer in [``low``, 2**63) (None if ``optional``), else ``ValueError``."""
    _check_type(what, value, Integral, optional)
    if value is not None and not low <= value < 2**63:
        raise ValueError(f"{what} must be >= {low}, got {value}" if value < low
                         else f"{what} is out of range for int64, got {value}")
    return value


def _interval(what: str, value, low: float, high: float = float("inf"), brackets: str = "[]",
              optional: bool = False):
    """``value`` if it is a real number (or None when ``optional``) in the
    interval from ``low`` to ``high`` whose ends ``brackets`` close (``[]``)
    or open (``()``), else ``ValueError`` naming ``what``; NaN lies in none."""
    _check_type(what, value, Real, optional)
    if value is None:
        return value
    above = low <= value if brackets[0] == "[" else low < value
    below = value <= high if brackets[1] == "]" else value < high
    if not (above and below):
        raise ValueError(f"{what} must lie in {brackets[0]}{low:g}, {high:g}{brackets[1]},"
                         f" got {value}")
    return value


def _class_count(k, what: str = "K") -> int:
    """``k`` if it is a class count a model can have, an integer >= 2."""
    return _whole(what, k, 2)


def _probabilities(p, what: str = "p") -> np.ndarray:
    """``p`` as float64 if it is a probability vector: K >= 2 nonnegative entries summing to 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 2 or not (p >= 0.0).all() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} must be a probability vector with K >= 2")
    return p


def _labels(labels, k: int | None = None, what: str = "K") -> np.ndarray:
    """The one label rule: ``labels`` as int64 whole numbers in [0, k) (in
    int64's range without ``k``), else ``ValueError`` naming ``what``, the
    source of K.  Integer input is cast once, and not copied if int64; other
    input must be finite whole numbers as float64, so 0.5 is no class 0."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biu":
        y = y.astype(np.float64)
        fraction = ~np.isfinite(y) | (y != np.floor(y))
        if fraction.any():
            raise ValueError(f"labels must be whole numbers, got {y[fraction][0].item()}")
    if y.size:
        low, high = y.min().item(), y.max().item()
        if low < 0:
            raise ValueError(f"labels must be nonnegative class indices, got {low}")
        if k is None:
            k, what = 2**63, "int64"
        if high >= k:
            raise ValueError(f"labels out of range for {what}: {high} is not below {k}")
    return y.astype(np.int64, copy=False)


def _labelled(features, labels, k: int | None = None,
              what: str = "K") -> tuple[np.ndarray, np.ndarray]:
    """``features`` as a finite float64 n x d matrix and ``labels`` as one
    label per row by :func:`_labels`, else ``ValueError``."""
    X = np.asarray(features, dtype=np.float64)
    y = _labels(labels, k, what)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("features must be n x d with one label per row")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X, y


def _read(what: str, data, keys, required=()) -> dict:
    """The JSON object ``data`` with each key renamed by ``keys`` (JSON key ->
    field, or a list of keys that keep their names).  A non-object, an
    unknown key or a missing ``required`` key raises ``ValueError`` naming
    ``what``; absent keys stay absent, so defaults live on the dataclasses."""
    if not isinstance(keys, dict):
        keys = dict(zip(keys, keys))
    for key in _check_type(what, data, dict):
        if key not in keys:
            raise ValueError(f"{what} has unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")
    return {keys[key]: value for key, value in data.items()}


def _from_json(cls, data, what: str):
    """``cls(**data)`` for a JSON object keyed by the dataclass ``cls``'s
    fields, read by :func:`_read`; a field without a default is required."""
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    return cls(**_read(what, data, names, required))
