"""Outputs checked against the NumPy/DFS oracles of ``repro.reference``.

Everything here runs outside the timed region and reads the datastore's
files with pandas, not with Spark, so a check never adds a Spark job to
the counted ones.
"""
from __future__ import annotations

import os
from collections import defaultdict

import pandas as pd

from repro import reference

#: |Δ|∞ allowed between a stored top-k score and the oracle's score: exact
#: cycle sums for CycleRank, convergence slack for the power iterations.
CYCLERANK_TOLERANCE = 1e-9
POWER_TOLERANCE = 1e-6


def stored_frame(root: str, dataset: str, part: str) -> pd.DataFrame:
    """A stored dataset's ``vertices`` or ``edges`` parquet directory."""
    return pd.read_parquet(os.path.join(root, "datasets", dataset, part))


def stored_edges(root: str, dataset: str) -> list[tuple[int, int]]:
    """Edge list of a stored dataset."""
    e = stored_frame(root, dataset, "edges")
    return list(zip(e["src"].astype(int), e["dst"].astype(int)))


def oracle_scores(algorithm: str, params: dict, edges) -> dict[int, float]:
    """Reference scores for one task."""
    alpha = params.get("alpha", 0.85)
    refs = params.get("refs")
    if algorithm == "pagerank":
        return reference.pagerank_ref(edges, alpha=alpha)
    if algorithm == "cheirank":
        return reference.cheirank_ref(edges, alpha=alpha)
    if algorithm == "personalized_pagerank":
        return reference.pagerank_ref(edges, alpha=alpha, refs=refs)
    if algorithm == "personalized_cheirank":
        return reference.cheirank_ref(edges, alpha=alpha, refs=refs)
    if algorithm == "cyclerank":
        (ref,) = refs
        return reference.cyclerank_ref(edges, ref, params.get("k", 3))
    raise ValueError(f"no oracle for {algorithm!r}")


def topk_mismatch(result: pd.DataFrame, expected: dict[int, float], k: int,
                  tol: float) -> str | None:
    """Why a stored top-k disagrees with the oracle, or None if it agrees.

    Ties are tolerated: a row may stand in for another whose oracle score
    is within ``2·tol`` of the k-th best.
    """
    n = min(k, len(expected))
    if len(result) != n:
        return f"{len(result)} rows, expected {n}"
    ids = [int(v) for v in result["id"]]
    scores = [float(s) for s in result["score"]]
    if len(set(ids)) != n or [int(r) for r in result["rank"]] != list(range(1, n + 1)):
        return "ids not distinct or ranks not 1..k"
    if any(v not in expected for v in ids):
        return "row id not in the graph"
    err = max(abs(s - expected[v]) for v, s in zip(ids, scores))
    if err > tol:
        return f"|score - oracle|inf = {err:.3g} > {tol:g}"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "scores not in descending order"
    kth = sorted(expected.values(), reverse=True)[n - 1]
    if any(expected[v] < kth - 2 * tol for v in ids):
        return "a row lies outside the oracle's top-k"
    return None


def check_task(algorithm: str, params: dict, edges, result: pd.DataFrame,
               k: int) -> str | None:
    """Oracle check of one stored result."""
    tol = CYCLERANK_TOLERANCE if algorithm == "cyclerank" else POWER_TOLERANCE
    return topk_mismatch(result, oracle_scores(algorithm, params, edges), k, tol)


def ball(edges, ref: int, k: int) -> tuple[int, int]:
    """Vertices and induced edges of the (k-1)-ball around ``ref``: nodes
    within k-1 hops forward and k-1 hops backward (driver-side BFS)."""
    fwd: dict[int, list[int]] = defaultdict(list)
    bwd: dict[int, list[int]] = defaultdict(list)
    for s, d in edges:
        fwd[s].append(d)
        bwd[d].append(s)

    def reach(adj) -> set[int]:
        seen, frontier = {ref}, {ref}
        for _ in range(k - 1):
            frontier = {w for v in frontier for w in adj[v]} - seen
            seen |= frontier
        return seen

    inside = reach(fwd) & reach(bwd)
    return len(inside), sum(1 for s, d in edges if s in inside and d in inside)


def cycles(edges, ref: int, k: int) -> int:
    """Simple cycles of length 2..k through ``ref`` (DFS oracle)."""
    return len(reference.simple_cycles_ref(edges, ref, k))
