"""Ranking helpers shared by the algorithms, the scheduler and the
experiment harnesses.

Ties are always broken by ascending vertex id so every ranking in the
reproduction is deterministic (the paper's tables are single fixed
orderings).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F


def rank_by(column: str, *, ascending: bool = False) -> Column:
    """The 1-based rank of each row by ``column``: largest first (smallest
    if ``ascending``), ties broken by ascending ``id``."""
    order = F.col(column).asc() if ascending else F.col(column).desc()
    return F.row_number().over(Window.orderBy(order, F.col("id").asc()))


def top_k(scores: DataFrame, k: int) -> pd.DataFrame:
    """The ``k`` best vertices by score, named and ranked.

    ``scores`` carries each vertex's name, as every algorithm's output
    does, so one sorted ``limit`` (score descending, id tie-break) brings
    the rows to the driver, where they are numbered ``rank = 1..n``: one
    Spark job. This is the only top-k in the product: the scheduler stores
    it and the table harnesses read their columns from it.

    Args:
        scores: ``(id, name, score)``.
        k: how many rows to keep.

    Returns:
        pandas ``(id, score, rank, name)`` in rank order.
    """
    top = (
        scores.select("id", "score", "name")
        .orderBy(F.col("score").desc(), F.col("id").asc())
        .limit(k)
        .toPandas()
    )
    top.insert(2, "rank", range(1, len(top) + 1))
    return top


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
