"""PageRank and CheiRank as pregel power iteration.

PageRank models a random surfer: with probability α (the damping
factor, 0.85 in the paper's Table I/II runs) follow a uniformly random
out-edge, with probability 1−α teleport to a uniformly random vertex.
Dangling vertices (no out-edges) teleport with probability 1, so their
mass is redistributed uniformly each iteration — this keeps the score
vector a probability distribution (sums to 1).

CheiRank [Chepelianskii 2010] is exactly PageRank on the transposed
graph, ranking by outgoing instead of incoming connections.
"""
from __future__ import annotations

from typing import Iterable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.graph import DiGraph, id_in
from repro.pregel.engine import pregel


def _power_iteration(
    g: DiGraph,
    refs: int | Iterable[int] | None,
    alpha: float,
    max_iter: int,
    tol: float,
) -> DataFrame:
    """Shared PR/PPR power iteration on the pregel engine.

    Each superstep computes ``x' = (1 − α + α·d)·t + α·A·x``, where ``t``
    is the teleport vector and ``d`` the mass on dangling vertices
    (those with no out-edges), which teleports along ``t``. ``d`` is a
    pregel aggregator: it is summed over the state that a superstep
    produces, in the same Spark job, and used by the next superstep.

    Args:
        g: the graph.
        refs: the reference id or ids, over which ``t`` is uniform, or
            ``None`` for the uniform vector over all vertices (classic
            PageRank).
        alpha: damping factor — probability of following an out-edge.
        max_iter, tol: convergence controls (L1).

    Returns:
        ``(id, score)`` summing to 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if refs is None:
        n = g.num_vertices()
        if n == 0:
            raise ValueError("graph has no vertices")
        tele = F.lit(1.0 / n)
    else:
        refs = {refs} if isinstance(refs, int) else set(refs)
        if not refs:
            raise ValueError("reference set must be non-empty")
        is_ref = id_in("id", refs)
        missing = len(refs) - g.vertices.filter(is_ref).count()
        if missing:
            raise KeyError(f"{missing} reference id(s) not present in the graph")
        tele = F.when(is_ref, 1.0 / len(refs)).otherwise(0.0)
    # The walk starts from the teleport vector (uniform for PR): nodes
    # unreachable from the reference set then stay at exactly 0 instead
    # of holding a slowly decaying α^k residual of a uniform start.
    state = g.vertices.select("id", tele.alias("value"), tele.alias("tele"))

    tele_col = F.col("tele")
    followed = alpha * F.coalesce(F.col("msg"), F.lit(0.0))

    def update(agg: dict[str, float]) -> Column:
        return (1.0 - alpha + alpha * agg["dangling"]) * tele_col + followed

    res = pregel(
        state,
        g.edges,
        F.col("value") / F.size("out"),
        update,
        aggregators={
            "dangling": F.sum(
                F.when(F.size("out") == 0, F.col("value")).otherwise(0.0)
            )
        },
        max_iter=max_iter,
        tol=tol,
    )
    return res.state.select("id", F.col("value").alias("score"))


def pagerank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = 50, tol: float = 1e-8
) -> DataFrame:
    """Classic PageRank.

    Args:
        g: the graph.
        alpha: damping factor (probability of following a link).
        max_iter: power-iteration cap.
        tol: L1 convergence threshold.

    Returns:
        DataFrame ``(id, score)``; scores sum to 1.
    """
    return _power_iteration(g, None, alpha, max_iter, tol)


def cheirank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = 50, tol: float = 1e-8
) -> DataFrame:
    """CheiRank: PageRank on the transposed graph (out-link based)."""
    return _power_iteration(g.transpose(), None, alpha, max_iter, tol)
