"""CycleRank scoring functions σ(n).

Equation 1 weights each cycle by a function of its length; the paper's
default (best on Wikipedia) is exponential damping ``σ(n) = e^{-n}``.
The CycleRank journal paper [Consonni et al. 2020] also studies
reciprocal-linear and reciprocal-quadratic weightings, and a constant
weight is the unweighted cycle count — all four are selectable in the
demo, so all four are provided here.
"""
from __future__ import annotations

import math
from typing import Callable

ScoringFn = Callable[[int], float]


def sigma_exp(n: int) -> float:
    """Exponential damping ``e^{-n}`` (the paper's default)."""
    return math.exp(-n)


def sigma_lin(n: int) -> float:
    """Reciprocal-linear damping ``1/n``."""
    return 1.0 / n


def sigma_quad(n: int) -> float:
    """Reciprocal-quadratic damping ``1/n²``."""
    return 1.0 / (n * n)


def sigma_const(n: int) -> float:
    """Constant weight 1 — plain cycle counting."""
    return 1.0


SCORING_FUNCTIONS: dict[str, ScoringFn] = {
    "exp": sigma_exp,
    "lin": sigma_lin,
    "quad": sigma_quad,
    "const": sigma_const,
}


def get_scoring(sigma: str | ScoringFn) -> ScoringFn:
    """Resolve a scoring function by name or pass a callable through."""
    if callable(sigma):
        return sigma
    try:
        return SCORING_FUNCTIONS[sigma]
    except KeyError:
        raise ValueError(
            f"unknown scoring function {sigma!r}; know {sorted(SCORING_FUNCTIONS)}"
        ) from None

