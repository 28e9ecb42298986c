"""Ranking helpers shared by the algorithms, the scheduler and the
experiment harnesses.

Ties are always broken by ascending vertex id so every ranking in the
reproduction is deterministic (the paper's tables are single fixed
orderings).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.graph.graph import DiGraph


def ranks(scores: DataFrame, *, ascending: bool = False) -> DataFrame:
    """Attach a 1-based ``rank`` column to a ``(id, score)`` frame.

    Args:
        scores: per-vertex scores.
        ascending: rank smallest score first if True (default: largest
            score is rank 1).

    Returns:
        ``(id, score, rank)`` with deterministic id tie-break.
    """
    order = [
        F.col("score").asc() if ascending else F.col("score").desc(),
        F.col("id").asc(),
    ]
    w = Window.orderBy(*order)
    return scores.select("id", "score", F.row_number().over(w).alias("rank"))


def top_k(g: DiGraph, scores: DataFrame, k: int) -> pd.DataFrame:
    """The ``k`` best vertices of ``g`` by score, named and ranked.

    One sorted ``limit`` (score descending, id tie-break) brings the rows
    to the driver, where they are numbered ``rank = 1..n``. This is the
    only top-k in the product: the scheduler stores it and the table
    harnesses read their columns from it.

    Returns:
        pandas ``(id, score, rank, name)`` in rank order.
    """
    top = (
        g.with_names(scores.select("id", "score"))
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
