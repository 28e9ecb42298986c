"""Personalized PageRank and personalized CheiRank.

Personalized PageRank replaces the uniform teleport vector with one
concentrated on the reference node(s): every teleport — including the
escape from dangling vertices — jumps back to the reference set. The
stationary distribution is then the probability of being at each node
on random walks restarted from the references, i.e. a relevance score
around the query.
"""
from __future__ import annotations

from typing import Iterable

import pandas as pd

from repro.core.pagerank import MAX_ITER, _one_lane
from repro.graph.graph import DiGraph


def personalized_pagerank(
    g: DiGraph,
    refs: int | Iterable[int],
    *,
    alpha: float = 0.85,
    max_iter: int = MAX_ITER,
    tol: float = 1e-8,
) -> pd.DataFrame:
    """Personalized PageRank around one or more reference nodes.

    Args:
        g: the graph.
        refs: reference node id or ids (the teleport set).
        alpha: damping factor — the paper's Table I uses α=0.3 (strong
            teleport) on Wikipedia and α=0.85 on Amazon.
        max_iter, tol: convergence controls.

    Returns:
        pandas ``(id, name, score)``; scores sum to 1 and the reference
        set typically dominates.
    """
    return _one_lane(g, (refs, alpha, False), max_iter, tol)


def personalized_cheirank(
    g: DiGraph,
    refs: int | Iterable[int],
    *,
    alpha: float = 0.85,
    max_iter: int = MAX_ITER,
    tol: float = 1e-8,
) -> pd.DataFrame:
    """Personalized CheiRank: PPR on the transposed graph."""
    return _one_lane(g, (refs, alpha, True), max_iter, tol)
