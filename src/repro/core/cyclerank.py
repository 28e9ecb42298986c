"""CycleRank: personalized relevance from simple cycles through a
reference node (Equation 1 of the paper).

``CR_{r,K}(i) = Σ_{n=2..K} σ(n) · c_{r,n}(i)`` where ``c_{r,n}(i)`` is
the number of simple cycles of length ``n`` (edges) that contain both
the reference ``r`` and node ``i``. By construction the reference node
lies on every counted cycle and so receives the maximum score.

**Pruning.** Any node on a cycle of length ≤ K lies within forward
distance K−1 of ``r`` *and* within backward distance K−1, so before
enumerating we restrict the graph to the intersection of the two
(K−1)-balls around ``r`` (the same pruning the reference C++
implementation applies). The edges are collected to the driver once
(one Spark job), and both balls come from one two-way BFS over them
(:func:`~repro.pregel.engine.iterate_frontier`), which starts no job;
the ball is the intersection of the two id sets. Nodes outside the ball
score 0.

**Enumeration.** The pruned ball is local to ``r`` and small, so a
depth-first search over its induced edges, on the driver, counts the
simple cycles through ``r``. Every such cycle has exactly one representation
as a path ``r → v₁ → … → v_{n-1} → r`` with distinct ``vᵢ ≠ r``; the
search extends a path only to nodes not on it, and the stack is at most
K deep. σ is applied on the driver, and the ball's scores return to Spark
as a literal map that a projection of the vertex frame looks up, so a
CycleRank task is this one collect plus the caller's action on the
scores.
"""
from __future__ import annotations

import operator
from collections import Counter

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.scoring import ScoringFn, get_scoring
from repro.graph.graph import DiGraph
from repro.pregel.engine import iterate_frontier


def prune_to_k_ball(g: DiGraph, ref: int, k: int) -> tuple[set[int], pd.DataFrame]:
    """The nodes within forward AND backward distance ``k-1`` of ``ref``
    (a superset of all nodes on cycles of length ≤ k through ``ref``),
    and their induced edges.

    One Spark job collects ``g``'s edges; a second, a vertex lookup, runs
    only when ``ref`` is on no edge.

    Returns:
        ``(ids, edges)``: the ball's vertex ids (a vertex may have no
        induced edge) and pandas ``(src, dst)``, the edges with both ends
        in ``ids``.

    Raises:
        KeyError: ``ref`` is not a vertex of ``g``.
    """
    edges = g.edges.toPandas()
    # Every endpoint is a vertex, so only a ref on no edge can be unknown;
    # no vertex id lies outside the long range, which Spark cannot compare.
    if not (edges.to_numpy() == ref).any() and (
        not -(2**63) <= ref < 2**63 or g.vertices.filter(F.col("id") == ref).isEmpty()
    ):
        raise KeyError(f"reference node {ref} not in graph")
    fwd, bwd = iterate_frontier([ref], edges, max_depth=k - 1)
    ids = fwd & bwd
    inside = edges["src"].isin(ids) & edges["dst"].isin(ids)
    return ids, edges[inside].reset_index(drop=True)


def _count_cycles(
    succ: dict[int, list[int]], ref: int, k: int
) -> Counter[tuple[int, int]]:
    """``(node, length) → number of simple cycles`` through ``ref`` with
    2..k edges, by DFS over the successor lists ``succ``. Self-loops
    close no counted cycle: one at ``ref`` has length 1, and any other
    leads back onto the path."""
    counts: Counter[tuple[int, int]] = Counter()
    stack = [ref]
    on_stack = {ref}

    def walk(node: int) -> None:
        for nxt in succ.get(node, ()):
            if nxt == ref:
                if len(stack) > 1:  # the closing edge makes len(stack) edges
                    counts.update((v, len(stack)) for v in stack)
            elif nxt not in on_stack and len(stack) < k:
                stack.append(nxt)
                on_stack.add(nxt)
                walk(nxt)
                on_stack.remove(stack.pop())

    walk(ref)
    return counts


def cycle_counts(g: DiGraph, ref: int, k: int = 3) -> pd.DataFrame:
    """Per-node simple-cycle counts ``c_{r,n}(i)``.

    Args:
        g: the graph.
        ref: reference node id.
        k: maximum cycle length (edges), ``k > 1``.

    Returns:
        pandas frame ``(id, length, n_cycles)``: one row per node and
        cycle length with a nonzero count. Nodes on no cycle are absent.

    Raises:
        ValueError: ``k < 2``, before any Spark job runs.
        TypeError: ``ref`` is not an integer, before any Spark job runs.
        KeyError: ``ref`` is not a vertex of ``g``.
    """
    ref = operator.index(ref)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _, edges = prune_to_k_ball(g, ref, k)
    succ: dict[int, list[int]] = {}
    for src, dst in zip(edges["src"].tolist(), edges["dst"].tolist()):
        succ.setdefault(src, []).append(dst)
    rows = [(v, n, c) for (v, n), c in _count_cycles(succ, ref, k).items()]
    return pd.DataFrame(rows, columns=["id", "length", "n_cycles"], dtype="int64")


def cyclerank(
    g: DiGraph,
    ref: int,
    *,
    k: int = 3,
    sigma: str | ScoringFn = "exp",
) -> DataFrame:
    """CycleRank scores for every vertex of ``g`` w.r.t. ``ref``.

    Args:
        g: the graph.
        ref: reference node id.
        k: maximum cycle length (the paper uses K=3 on Wikipedia,
            K=5 on Amazon).
        sigma: scoring-function name (``exp``/``lin``/``quad``/``const``)
            or any callable ``n -> weight``, such as those in
            :mod:`repro.core.scoring`; the paper's default is ``exp``
            (σ(n)=e⁻ⁿ).

    Returns:
        DataFrame ``(id, name, score)`` covering **all** vertices; nodes
        on no qualifying cycle score 0. The reference node has the
        maximum.

    Raises:
        ValueError: unknown σ name or ``k < 2``, before any Spark job.
        TypeError: ``ref`` is not an integer, before any Spark job.
        KeyError: ``ref`` is not a vertex of ``g``.
    """
    weight = get_scoring(sigma)
    counts = cycle_counts(g, ref, k)
    scores = (counts["n_cycles"] * counts["length"].map(weight)).groupby(
        counts["id"]
    ).sum()
    score = F.lit(0.0)
    if len(scores):
        # repr of a float parses back to the same double.
        ids = ", ".join(f"{int(v)}L" for v in scores.index)
        values = ", ".join(f"{float(s)!r}D" for s in scores)
        ball = F.expr(f"map_from_arrays(array({ids}), array({values}))")
        score = F.coalesce(ball[F.col("id")], score)
    return g.vertices.select("id", "name", score.alias("score"))
