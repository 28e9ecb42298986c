"""Unit tests for the CycleRank scoring functions σ(n)."""
import math

import pytest

from repro.core.scoring import (
    SCORING_FUNCTIONS,
    get_scoring,
    sigma_const,
    sigma_exp,
    sigma_lin,
    sigma_quad,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
def test_sigma_exp_value(n):
    assert sigma_exp(n) == pytest.approx(math.exp(-n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
def test_sigma_lin_value(n):
    assert sigma_lin(n) == pytest.approx(1.0 / n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
def test_sigma_quad_value(n):
    assert sigma_quad(n) == pytest.approx(1.0 / n**2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
def test_sigma_const_value(n):
    assert sigma_const(n) == 1.0


@pytest.mark.parametrize("name", ["exp", "lin", "quad", "const"])
def test_monotone_nonincreasing(name):
    f = SCORING_FUNCTIONS[name]
    vals = [f(n) for n in range(2, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("name", ["exp", "lin", "quad"])
def test_shorter_cycles_weigh_strictly_more(name):
    f = SCORING_FUNCTIONS[name]
    assert f(2) > f(3) > f(4)


def test_get_scoring_by_name():
    assert get_scoring("exp") is sigma_exp
    assert get_scoring("lin") is sigma_lin


def test_get_scoring_passthrough_callable():
    fn = lambda n: 0.5  # noqa: E731
    assert get_scoring(fn) is fn


def test_get_scoring_unknown_raises():
    with pytest.raises(ValueError, match="unknown scoring function"):
        get_scoring("nope")

