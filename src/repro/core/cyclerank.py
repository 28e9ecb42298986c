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
implementation applies). Both balls come from one two-way BFS over the
graph's edge frame, on the driver
(:func:`~repro.pregel.engine.iterate_frontier`); the ball is the
intersection of the two id sets. Nodes outside the ball score 0.

**Enumeration.** The pruned ball is local to ``r`` and small, so a
depth-first search over its induced edges, on the driver, counts the
simple cycles through ``r``. Every such cycle has exactly one representation
as a path ``r → v₁ → … → v_{n-1} → r`` with distinct ``vᵢ ≠ r``; the
search extends a path only to nodes not on it, and the stack is at most
K deep. σ is applied on the driver, and the scores are a pandas frame
over the graph's vertex frame, so a CycleRank task starts no Spark job.

**Budget.** The number of simple cycles grows factorially in a dense
ball (a 13-vertex clique at K=13 would take about an hour), so the
search counts its path extensions and gives up, raising, at
:data:`MAX_PATH_EXTENSIONS`.
"""
from __future__ import annotations

from collections import Counter
from itertools import repeat

import pandas as pd

from repro.core.scoring import ScoringFn, get_scoring
from repro.graph.graph import DiGraph
from repro.pregel.engine import integer, iterate_frontier


def prune_to_k_ball(g: DiGraph, ref: int, k: int) -> tuple[pd.DataFrame, set[int], pd.DataFrame]:
    """The nodes within forward AND backward distance ``k-1`` of ``ref``
    (a superset of all nodes on cycles of length ≤ k through ``ref``),
    and their induced edges.

    Reads ``g``'s pandas frames on the driver.

    Returns:
        ``(vertices, ids, edges)``: every vertex of ``g``, its pandas
        ``(id, name)`` frame; the ball's vertex ids (a vertex may have no
        induced edge); and pandas ``(src, dst)``, the edges with both
        ends in ``ids``.

    Raises:
        KeyError: ``ref`` is not a vertex of ``g``.
    """
    vertices, edges = g.vertex_frame, g.edge_frame
    if not (vertices["id"] == ref).any():
        raise KeyError(f"reference node {ref} not in graph")
    fwd, bwd = iterate_frontier([ref], edges, max_depth=k - 1)
    ids = fwd & bwd
    inside = edges["src"].isin(ids) & edges["dst"].isin(ids)
    return vertices, ids, edges[inside].reset_index(drop=True)


#: The most path extensions one cycle search makes. The search makes
#: 150,000 to 300,000 a second, so a 13-vertex clique at K=13 fails in
#: under a second; the largest ball of the demo's own queries (K=5 around
#: a background article of en wikilink 2018 at scale 2: 345 V / 1,596 E)
#: takes 1,083, under 1 % of it.
MAX_PATH_EXTENSIONS = 120_000


class _OverBudget(Exception):
    """The cycle search reached :data:`MAX_PATH_EXTENSIONS`."""


def _count_cycles(
    succ: dict[int, list[int]], ref: int, k: int
) -> Counter[tuple[int, int]]:
    """``(node, length) → number of simple cycles`` through ``ref`` with
    2..k edges, by DFS over the successor lists ``succ``. Self-loops
    close no counted cycle: one at ``ref`` has length 1, and any other
    leads back onto the path.

    Raises:
        _OverBudget: the search would extend a path more than
            :data:`MAX_PATH_EXTENSIONS` times.
    """
    counts: Counter[tuple[int, int]] = Counter()
    stack = [ref]
    on_stack = {ref}
    extensions = 0

    def walk(node: int) -> None:
        nonlocal extensions
        for nxt in succ.get(node, ()):
            if nxt == ref:
                if len(stack) > 1:  # the closing edge makes len(stack) edges
                    counts.update(zip(stack, repeat(len(stack))))
            elif nxt not in on_stack and len(stack) < k:
                extensions += 1
                if extensions > MAX_PATH_EXTENSIONS:
                    raise _OverBudget
                stack.append(nxt)
                on_stack.add(nxt)
                walk(nxt)
                on_stack.remove(stack.pop())

    walk(ref)
    return counts


def cycle_counts(g: DiGraph, ref: int, k: int = 3) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Per-node simple-cycle counts ``c_{r,n}(i)``.

    Args:
        g: the graph.
        ref: reference node id.
        k: maximum cycle length (edges), an integer ``k > 1``.

    Returns:
        ``(vertices, counts)``: every vertex of ``g``, its pandas ``(id,
        name)`` frame, and pandas ``(id, length, n_cycles)``, one row per
        node and cycle length with a nonzero count. Nodes on no cycle are
        absent from ``counts``.

    Raises:
        TypeError: ``ref`` or ``k`` is not an integer, or is a ``bool``.
        ValueError: ``k < 2``.
        KeyError: ``ref`` is not a vertex of ``g``.
        RuntimeError: the search reached :data:`MAX_PATH_EXTENSIONS`; the
            message names ``k`` and the ball's vertex and edge counts.
    """
    ref, k = integer(ref, "ref"), integer(k, "k")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    vertices, ids, edges = prune_to_k_ball(g, ref, k)
    succ: dict[int, list[int]] = {}
    for src, dst in zip(edges["src"].tolist(), edges["dst"].tolist()):
        succ.setdefault(src, []).append(dst)
    try:
        counted = _count_cycles(succ, ref, k)
    except _OverBudget:
        raise RuntimeError(
            f"cycle search for k={k} stopped after {MAX_PATH_EXTENSIONS:,} path "
            f"extensions: the ball of reference node {ref} has {len(ids)} vertices "
            f"and {len(edges)} edges"
        ) from None
    rows = [(v, n, c) for (v, n), c in counted.items()]
    return vertices, pd.DataFrame(rows, columns=["id", "length", "n_cycles"], dtype="int64")


def cyclerank(
    g: DiGraph,
    ref: int,
    *,
    k: int = 3,
    sigma: str | ScoringFn = "exp",
) -> pd.DataFrame:
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
        pandas ``(id, name, score)`` covering **all** vertices; nodes
        on no qualifying cycle score 0. The reference node has the
        maximum.

    Raises:
        ValueError: unknown σ name or ``k < 2``.
        TypeError: ``ref`` or ``k`` is not an integer, or is a ``bool``.
        KeyError: ``ref`` is not a vertex of ``g``.
        RuntimeError: the cycle search reached
            :data:`MAX_PATH_EXTENSIONS` (see :func:`cycle_counts`).
    """
    weight = get_scoring(sigma)
    vertices, counts = cycle_counts(g, ref, k)
    scores = (counts["n_cycles"] * counts["length"].map(weight)).groupby(
        counts["id"]
    ).sum()
    return vertices.assign(score=vertices["id"].map(scores).fillna(0.0).astype("float64"))
