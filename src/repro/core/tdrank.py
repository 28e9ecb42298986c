"""2DRank: Zhirov's two-dimensional combination of PageRank and CheiRank.

Zhirov et al. [EPJ B 2010] place every node in the (K, K*) plane, where
K is its PageRank rank index and K* its CheiRank rank index (1 = best).
The 2DRank order K2 is built by sweeping growing squares [1..r]×[1..r]:
when the sweep reaches size r, the nodes newly entering the square are
those on its right and top edges. Following the paper's construction we
append, at each r, first the nodes on the vertical side (K = r, K* < r)
ordered by K*, then the nodes on the horizontal side (K* = r, K ≤ r)
ordered by K — so the corner node (K = K* = r) comes last within its
shell. 2DRank produces a *ranking only*, not a score (Section II), so
the result column is ``rank``.

Implemented as a pure rank-space transformation: compute both scores as
two lanes of one power iteration, rank each, then order by
``(shell = max(K, K*), side, offset)`` — an equivalent, single-pass
formulation of the square sweep.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd

from repro.core.pagerank import MAX_ITER, _power_iteration
from repro.core.ranking import rank_by
from repro.graph.graph import DiGraph


def combine_ranks(scores: pd.DataFrame) -> pd.DataFrame:
    """Merge PageRank ranks K and CheiRank ranks K* into the 2DRank order.

    Args:
        scores: pandas ``(id, name, score_0, score_1)``: the
            PageRank-side and the CheiRank-side score of each vertex.

    Returns:
        pandas ``(id, name, rank)`` — the 2DRank position (1 = best), in
        rank order.
    """
    ranked = rank_by(scores, "score_0").rename(columns={"rank": "k"})
    ranked = rank_by(ranked, "score_1").rename(columns={"rank": "kstar"})
    k, kstar = ranked["k"], ranked["kstar"]
    # vertical side (K == shell, K* < shell) first, ordered by K*;
    # then horizontal side (K* == shell) ordered by K — corner lands last.
    swept = ranked.assign(
        shell=np.maximum(k, kstar), side=kstar >= k, offset=np.minimum(k, kstar)
    ).sort_values(["shell", "side", "offset", "id"], ignore_index=True)
    return swept[["id", "name"]].assign(rank=np.arange(1, len(swept) + 1))


def twodrank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = MAX_ITER, tol: float = 1e-8
) -> pd.DataFrame:
    """Global 2DRank: square sweep over PageRank × CheiRank ranks, whose
    two power iterations run as two lanes of one pregel run."""
    lanes = [(None, alpha, False), (None, alpha, True)]
    return combine_ranks(_power_iteration(g, lanes, max_iter, tol))


def personalized_twodrank(
    g: DiGraph,
    refs: int | Iterable[int],
    *,
    alpha: float = 0.85,
    max_iter: int = MAX_ITER,
    tol: float = 1e-8,
) -> pd.DataFrame:
    """Personalized 2DRank: square sweep over PPR × personalized-CheiRank
    ranks (the demo's 'personalized variant' of 2DRank), run as two lanes
    of one pregel run."""
    lanes = [(refs, alpha, False), (refs, alpha, True)]
    return combine_ranks(_power_iteration(g, lanes, max_iter, tol))
