"""Executor: the computational node that runs one task.

Holds the registry of the demo's seven algorithms. Each entry maps the
algorithm name (as used in tasks) to a callable
``(DiGraph, **params) -> DataFrame`` returning per-vertex ``(id,
score)`` — for the 2DRank pair, which "does not assign a score to each
node, but just produces a ranking" (Section II), the rank is exposed as
a descending pseudo-score ``-rank`` so every algorithm is top-k-able
through the same interface.

New algorithms can be added by registering a callable, mirroring the
paper's "new algorithms can be easily added".
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cyclerank import cyclerank
from repro.core.pagerank import cheirank, pagerank
from repro.core.ppr import personalized_cheirank, personalized_pagerank
from repro.core.tdrank import personalized_twodrank, twodrank
from repro.graph.graph import DiGraph

AlgorithmFn = Callable[..., DataFrame]


def _rank_to_score(ranked: DataFrame) -> DataFrame:
    return ranked.select("id", (-F.col("rank")).cast("double").alias("score"))


def _run_twodrank(g: DiGraph, **kw) -> DataFrame:
    return _rank_to_score(twodrank(g, **kw))


def _run_personalized_twodrank(g: DiGraph, refs, **kw) -> DataFrame:
    return _rank_to_score(personalized_twodrank(g, refs, **kw))


def _run_cyclerank(g: DiGraph, refs, **kw) -> DataFrame:
    if not isinstance(refs, int):
        if len(refs) != 1:
            raise ValueError(
                f"cyclerank takes exactly one reference node, got {len(refs)}"
            )
        (refs,) = refs
    return cyclerank(g, refs, **kw)


def _run_ppr(g: DiGraph, refs, **kw) -> DataFrame:
    return personalized_pagerank(g, refs, **kw)


def _run_pcheirank(g: DiGraph, refs, **kw) -> DataFrame:
    return personalized_cheirank(g, refs, **kw)


#: The demo's seven algorithms. Personalized ones take ``refs``.
ALGORITHMS: dict[str, AlgorithmFn] = {
    "pagerank": pagerank,
    "cheirank": cheirank,
    "2drank": _run_twodrank,
    "personalized_pagerank": _run_ppr,
    "personalized_cheirank": _run_pcheirank,
    "personalized_2drank": _run_personalized_twodrank,
    "cyclerank": _run_cyclerank,
}

PERSONALIZED = frozenset(
    {"personalized_pagerank", "personalized_cheirank", "personalized_2drank",
     "cyclerank"}
)


class Executor:
    """Runs algorithm-by-name on a graph; extensible registry."""

    def __init__(self) -> None:
        self._registry = dict(ALGORITHMS)

    def register(self, name: str, fn: AlgorithmFn) -> None:
        """Add (or replace) an algorithm."""
        self._registry[name] = fn

    def algorithms(self) -> list[str]:
        """Registered algorithm names, sorted."""
        return sorted(self._registry)

    def run(self, g: DiGraph, algorithm: str, **params) -> DataFrame:
        """Execute ``algorithm`` on ``g``; returns ``(id, score)``.

        Raises:
            KeyError: unknown algorithm.
        """
        try:
            fn = self._registry[algorithm]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {algorithm!r}; know {self.algorithms()}"
            ) from None
        return fn(g, **params)
