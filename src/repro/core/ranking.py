"""Ranking helpers shared by the algorithms, the scheduler and the
experiment harnesses.

Ties are always broken by ascending vertex id so every ranking in the
reproduction is deterministic (the paper's tables are single fixed
orderings). Every algorithm returns its scores as a pandas frame on the
driver, so ranking is a pandas sort and starts no Spark job.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def rank_by(scores: pd.DataFrame, column: str, *, ascending: bool = False) -> pd.DataFrame:
    """``scores`` in rank order by ``column``, largest first (smallest if
    ``ascending``), ties broken by ascending ``id``, with the 1-based
    ``rank`` of each row as a last column."""
    ranked = scores.sort_values([column, "id"], ascending=[ascending, True], ignore_index=True)
    return ranked.assign(rank=np.arange(1, len(ranked) + 1))


def top_k(scores: pd.DataFrame, k: int) -> pd.DataFrame:
    """The ``k`` best vertices by score, named and ranked.

    ``scores`` carries each vertex's name, as every algorithm's output
    does, so this is one pandas sort (score descending, id tie-break) on
    the driver, numbered ``rank = 1..n``; it starts no Spark job. This is
    the only top-k in the product: the scheduler stores it and the table
    harnesses read their columns from it.

    Args:
        scores: pandas ``(id, name, score)``.
        k: how many rows to keep.

    Returns:
        pandas ``(id, score, rank, name)`` in rank order.
    """
    return rank_by(scores, "score").head(k)[["id", "score", "rank", "name"]]


def contamination(topk: list, contaminants: set) -> float:
    """Fraction of a top-k list drawn from a contaminant set.

    The paper's core qualitative claim is that PPR promotes globally
    central nodes ("United States", "Harry Potter") into personalized
    top-k lists while CycleRank does not; with planted ground-truth
    hubs this becomes a measurable rate.
    """
    if not topk:
        return 0.0
    return sum(1 for x in topk if x in contaminants) / len(topk)
