"""The scalar range rules of ``errors``: whole numbers, intervals and
probability vectors (class counts are whole numbers from 2)."""

import math

import numpy as np
import pytest

from robust_trees.errors import _interval, _probabilities, _whole


class TestWhole:
    @pytest.mark.parametrize("value", [3, np.int64(3), 2**63 - 1])
    def test_an_integer_at_or_above_the_floor_passes(self, value):
        assert _whole("n", value, 3) is value

    @pytest.mark.parametrize("value, message", [
        (2, "n must be >= 3, got 2"),
        (3.0, "n must be an integer, got float"),
        (True, "n must be an integer, got bool"),
        (None, "n must be an integer, got NoneType"),
        (2**63, "n is out of range for int64, got 9223372036854775808"),
        (10**30, "n is out of range for int64, got 1000000000000000000000000000000"),
    ], ids=["below", "float", "bool", "none", "int64-end", "huge"])
    def test_anything_else_is_named(self, value, message):
        with pytest.raises(ValueError) as exc:
            _whole("n", value, 3)
        assert str(exc.value) == message

    def test_optional_takes_none(self):
        assert _whole("max_depth", None, 1, optional=True) is None


class TestInterval:
    @pytest.mark.parametrize("brackets, inside, outside", [
        ("[]", [0.0, 0.5, 1.0], [-0.1, 1.1]),
        ("[)", [0.0, 0.5], [1.0]),
        ("(]", [0.5, 1.0], [0.0]),
        ("()", [0.5], [0.0, 1.0]),
    ])
    def test_brackets_close_or_open_each_end(self, brackets, inside, outside):
        for value in inside:
            assert _interval("x", value, 0.0, 1.0, brackets) == value
        for value in outside:
            with pytest.raises(ValueError) as exc:
                _interval("x", value, 0.0, 1.0, brackets)
            assert str(exc.value) == f"x must lie in {brackets[0]}0, 1{brackets[1]}, got {value}"

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
    def test_nan_lies_in_no_interval(self, low, high):
        with pytest.raises(ValueError, match="got nan$"):
            _interval("x", math.nan, low, high)

    def test_a_closed_infinite_end_holds_infinity_and_an_open_one_does_not(self):
        assert _interval("margin", -math.inf, -math.inf) == -math.inf
        assert _interval("margin", math.inf, -math.inf) == math.inf
        with pytest.raises(ValueError) as exc:
            _interval("mu", math.inf, 0.0, brackets="[)")
        assert str(exc.value) == "mu must lie in [0, inf), got inf"

    def test_the_message_names_the_bounds(self):
        with pytest.raises(ValueError) as exc:
            _interval("uniform eta for K=3", 0.7, 0.0, 2 / 3, "[)")
        assert str(exc.value) == "uniform eta for K=3 must lie in [0, 0.666667), got 0.7"

    @pytest.mark.parametrize("value, kind", [("1", "str"), (True, "bool"), (None, "NoneType")])
    def test_a_value_that_is_no_real_number_is_named(self, value, kind):
        with pytest.raises(ValueError) as exc:
            _interval("lambda", value, 0.0, 1.0)
        assert str(exc.value) == f"lambda must be a real number, got {kind}"

    def test_optional_takes_none(self):
        assert _interval("ridge", None, 0.0, brackets="[)", optional=True) is None


class TestProbabilities:
    def test_a_probability_vector_passes_as_float64(self):
        p = _probabilities([1, 0])
        assert p.dtype == np.float64 and p.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("p", [[0.9, 0.9], [0.5, -0.2, 0.7], [math.nan, 1.0], [1.0],
                                   [[0.5, 0.5]], [0.5, 0.5 + 1e-6]])
    def test_anything_else_is_rejected(self, p):
        with pytest.raises(ValueError, match=r"^p must be a probability vector with K >= 2$"):
            _probabilities(p)
