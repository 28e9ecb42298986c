"""Executor: the computational node that runs one task.

Holds the registry of the demo's seven algorithms. Each entry maps the
algorithm name (as used in tasks) to a callable
``(DiGraph, **params) -> pd.DataFrame`` returning per-vertex pandas
``(id, name, score)``: the vertex's id and name from the graph's vertex
frame, and its score. The graph and the scores stay on the driver, so a
task starts no Spark job and :func:`~repro.core.ranking.top_k` is a
pandas sort. For the 2DRank pair,
which "does not assign a score to each node, but just produces a
ranking" (Section II), the rank is exposed as a descending pseudo-score
``-rank`` so every algorithm is top-k-able through the same interface.
A callable's signature names the parameters it accepts: the wrappers below report their core function's
(``functools.wraps``) or declare them, never a bare ``**kw``, so a task
can be checked against it before any dataset is fetched.

New algorithms can be added by registering a callable, mirroring the
paper's "new algorithms can be easily added".
"""
from __future__ import annotations

import functools
from typing import Callable

import pandas as pd

from repro.core.cyclerank import cyclerank
from repro.core.pagerank import cheirank, pagerank
from repro.core.ppr import personalized_cheirank, personalized_pagerank
from repro.core.tdrank import personalized_twodrank, twodrank
from repro.graph.graph import DiGraph

AlgorithmFn = Callable[..., pd.DataFrame]


def _rank_to_score(ranked: pd.DataFrame) -> pd.DataFrame:
    return ranked[["id", "name"]].assign(score=-ranked["rank"].astype("float64"))


@functools.wraps(twodrank)
def _run_twodrank(g: DiGraph, **kw) -> pd.DataFrame:
    return _rank_to_score(twodrank(g, **kw))


@functools.wraps(personalized_twodrank)
def _run_personalized_twodrank(g: DiGraph, refs, **kw) -> pd.DataFrame:
    return _rank_to_score(personalized_twodrank(g, refs, **kw))


def _run_cyclerank(g: DiGraph, refs, *, k: int = 3, sigma="exp") -> pd.DataFrame:
    if not isinstance(refs, int):
        if len(refs) != 1:
            raise ValueError(
                f"cyclerank takes exactly one reference node, got {len(refs)}"
            )
        (refs,) = refs
    return cyclerank(g, refs, k=k, sigma=sigma)


@functools.wraps(personalized_pagerank)
def _run_ppr(g: DiGraph, refs, **kw) -> pd.DataFrame:
    return personalized_pagerank(g, refs, **kw)


@functools.wraps(personalized_cheirank)
def _run_pcheirank(g: DiGraph, refs, **kw) -> pd.DataFrame:
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

    def algorithm(self, name: str) -> AlgorithmFn:
        """The registered callable for ``name``.

        Raises:
            KeyError: unknown algorithm.
        """
        try:
            return self._registry[name]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {name!r}; know {self.algorithms()}"
            ) from None

    def run(self, g: DiGraph, algorithm: str, **params) -> pd.DataFrame:
        """Execute ``algorithm`` on ``g``; returns pandas ``(id, name, score)``.

        Raises:
            KeyError: unknown algorithm.
        """
        return self.algorithm(algorithm)(g, **params)
