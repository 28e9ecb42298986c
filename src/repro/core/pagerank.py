"""PageRank and CheiRank as pregel power iteration.

PageRank models a random surfer: with probability α (the damping
factor, 0.85 in the paper's Table I/II runs) follow a uniformly random
out-edge, with probability 1−α teleport to a uniformly random vertex.
Dangling vertices (no out-edges) teleport with probability 1, so their
mass is redistributed uniformly each iteration — this keeps the score
vector a probability distribution (sums to 1).

CheiRank [Chepelianskii 2010] is exactly PageRank on the transposed
graph, ranking by outgoing instead of incoming connections.

Every power iteration of the package (PR, PPR, CheiRank, personalized
CheiRank and the two sides of each 2DRank) is a lane of
:func:`_power_iteration`, and several lanes run as one pregel run.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import pandas as pd

from repro.graph.graph import DiGraph
from repro.pregel.engine import integer, pregel

#: The default superstep cap of every power iteration. A superstep costs
#: well under a millisecond on the driver, so it is set for convergence:
#: CheiRank on the en wikilink graph at scale 2.0 needs about 80.
MAX_ITER = 200

#: One power iteration: ``(refs, alpha, transposed)``. ``refs`` is the
#: reference id or ids, over which the teleport vector is uniform, or
#: ``None`` for the uniform vector over all vertices (classic PageRank);
#: ``transposed`` walks the reversed edges (CheiRank).
Lane = tuple[int | Iterable[int] | None, float, bool]


def _power_iteration(
    g: DiGraph, lanes: Sequence[Lane], max_iter: int, tol: float
) -> pd.DataFrame:
    """Run PR/PPR power iterations, one per lane, as one pregel run.

    Each superstep computes, per lane, ``x' = (1 − α + α·d)·t + α·A·x``,
    where ``t`` is the teleport vector and ``d`` the mass on dangling
    vertices (those with no out-edges along the lane's direction), which
    teleports along ``t``. The walk starts from ``t`` (uniform for PR):
    nodes unreachable from the reference set then stay at exactly 0
    instead of holding a slowly decaying α^k residual of a uniform start.

    Args:
        g: the graph.
        lanes: the power iterations (:data:`Lane`).
        max_iter, tol: convergence controls (L1), applied to each lane.

    Returns:
        pandas ``(id, name, score_0, …, score_{L−1})``; each score column
        sums to 1.

    Raises:
        ValueError: an α outside [0, 1], an empty reference set, or a
            graph with no vertices for a lane without references.
        KeyError: a reference id is not a vertex.
        TypeError: an α or a reference id is a ``bool``, or a reference
            id is not an integer.
    """
    specs = []
    for refs, alpha, transposed in lanes:
        if isinstance(alpha, bool):
            raise TypeError(f"alpha must be a real number, got {alpha!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if refs is not None:
            refs = {integer(r, "ref") for r in ([refs] if isinstance(refs, int) else refs)}
            if not refs:
                raise ValueError("reference set must be non-empty")
        specs.append((refs, transposed))
    alphas = np.array([[alpha] for _, alpha, _ in lanes], dtype=float)

    def program(ids, seed, out_degree):
        tele = seed / np.maximum(seed.sum(axis=1, keepdims=True), 1)
        dangling = out_degree == 0
        degree = np.maximum(out_degree, 1)

        def send(x):
            return x / degree

        def update(x, msg):
            d = np.where(dangling, x, 0.0).sum(axis=1, keepdims=True)
            return (1.0 - alphas + alphas * d) * tele + alphas * msg

        return tele, send, update

    res = pregel(g.vertex_frame, g.edge_frame, program, lanes=specs, max_iter=max_iter, tol=tol)
    for (refs, _), lane in zip(specs, res.lanes):
        if refs is None and res.num_vertices == 0:
            raise ValueError("graph has no vertices")
        if lane.missing:
            raise KeyError(f"{lane.missing} reference id(s) not present in the graph")
    return res.state.rename(columns=lambda c: c.replace("value_", "score_"))


def _one_lane(g: DiGraph, lane: Lane, max_iter: int, tol: float) -> pd.DataFrame:
    """A single power iteration as ``(id, name, score)``."""
    return _power_iteration(g, [lane], max_iter, tol).rename(columns={"score_0": "score"})


def pagerank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = MAX_ITER, tol: float = 1e-8
) -> pd.DataFrame:
    """Classic PageRank.

    Args:
        g: the graph.
        alpha: damping factor (probability of following a link).
        max_iter: power-iteration cap.
        tol: L1 convergence threshold.

    Returns:
        pandas ``(id, name, score)``; scores sum to 1.
    """
    return _one_lane(g, (None, alpha, False), max_iter, tol)


def cheirank(
    g: DiGraph, *, alpha: float = 0.85, max_iter: int = MAX_ITER, tol: float = 1e-8
) -> pd.DataFrame:
    """CheiRank: PageRank on the transposed graph (out-link based)."""
    return _one_lane(g, (None, alpha, True), max_iter, tol)
