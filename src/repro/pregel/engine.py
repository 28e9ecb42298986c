"""A GraphX-Pregel-style superstep engine that runs on the driver.

GraphX is JVM-only and unavailable from PySpark without external
packages, so this module reimplements the superstep model of Pregel
(Malewicz et al., SIGMOD 2010) for graphs that fit on one machine:

* **The driver, no Spark job.** The engine takes the graph's pandas
  frames, which never leave the driver
  (:class:`~repro.graph.graph.DiGraph`), and runs every superstep there,
  in NumPy. On graphs of this size a Spark job costs far more than the
  arithmetic of a superstep (McSherry et al., "Scalability! But at what
  COST?", HotOS 2015), so the engine iterates where the data already is.
  The final state stays there, as a pandas frame.
* **Arrays, not rows.** The vertex ids are sorted and the edges become
  two index arrays. A vertex program sends one message per vertex along
  each of its out-edges, and ``np.bincount`` over the edge indices sums
  the messages each vertex receives.
* **Lanes.** A run may carry several value vectors, one per lane, as
  GraphX's ``runParallelPersonalizedPageRank`` carries one per source. A
  lane follows the edges or, transposed, the reversed edges, and may name
  a seed id set. Each lane stops at its own convergence: once its L1
  delta is at most ``tol`` its values are frozen while the other lanes
  go on, so a lane's values and superstep count are those of a run of
  that lane alone.
* **Metrics as values.** The run reports, per lane, the supersteps, the
  final L1 delta and how many of its seeds are not vertices, plus the
  vertex count, as plain Python values.

The bounded BFS (:func:`iterate_frontier`) walks the same edge frame,
as CycleRank does once per task. :func:`integer` is the integer check
that ``pregel`` and the algorithms apply to their parameters.
"""
from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

import numpy as np
import pandas as pd

#: ``program(ids, seed, out_degree) -> (x0, send, update)``: given the
#: sorted vertex ids, each lane's seed mask and each lane's out-degrees
#: (``(lanes, n)`` arrays), the initial values ``x0``; ``send(x)``, the
#: message each vertex sends along each of its out-edges; and
#: ``update(x, msg)``, the new values given the sum of the messages each
#: vertex received (0 where none). All three run on the driver.
Program = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple]


class LaneResult(NamedTuple):
    """Outcome of one lane.

    Attributes:
        iterations: supersteps the lane ran before it was frozen.
        delta: exact L1 distance between its last two value vectors.
        converged: whether ``delta <= tol`` froze the lane (as opposed to
            hitting ``max_iter``).
        missing: how many ids of the lane's seed set are not vertices.
    """

    iterations: int
    delta: float
    converged: bool
    missing: int


@dataclass(frozen=True)
class PregelResult:
    """Outcome of a pregel run.

    Attributes:
        state: pandas ``(id, name, value_0, …, value_{L−1})``, one
            value column per lane, in ascending id order.
        num_vertices: number of vertices.
        lanes: one :class:`LaneResult` per lane, in order.
    """

    state: pd.DataFrame
    num_vertices: int
    lanes: tuple[LaneResult, ...]

    @property
    def iterations(self) -> int:
        """Supersteps executed (by the lane that ran longest)."""
        return max(lane.iterations for lane in self.lanes)

    @property
    def delta(self) -> float:
        """The largest final L1 delta of any lane."""
        return max(lane.delta for lane in self.lanes)

    @property
    def converged(self) -> bool:
        """Whether every lane converged."""
        return all(lane.converged for lane in self.lanes)


def integer(value, name: str) -> int:
    """``value`` as an int; raises ``TypeError`` naming ``name`` for a
    ``bool`` (which Python counts as an int) or a non-integer."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def pregel(
    vertices: pd.DataFrame,
    edges: pd.DataFrame,
    program: Program,
    *,
    lanes: Sequence[tuple[Collection[int] | None, bool]] = ((None, False),),
    max_iter: int = 50,
    tol: float = 1e-9,
) -> PregelResult:
    """Run supersteps until every lane converges or ``max_iter``.

    Every superstep runs on the driver; the run starts no Spark job.

    Args:
        vertices: pandas vertex frame ``(id, name)``; each vertex's name
            is carried through the run to ``state`` unchanged.
        edges: pandas edge frame ``(src, dst)``; an edge with an endpoint
            that is not a vertex is ignored.
        program: the vertex program (:data:`Program`). ``x0`` may be
            1-D when there is one lane.
        lanes: per lane, ``(seeds, transposed)``: the lane's seed ids
            (``None``: every vertex is a seed), given to ``program`` as a
            mask, and whether the lane follows the reversed edges.
        max_iter: superstep cap, an integer (not a ``bool``) of at least 1.
        tol: per-lane L1 convergence threshold, a finite real of at least
            0.

    Returns:
        A :class:`PregelResult`.

    Raises:
        TypeError: ``max_iter`` is not an integer, or is a ``bool``.
        ValueError: ``max_iter < 1``, or ``tol`` is negative, NaN or
            infinite.
    """
    max_iter = integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if isinstance(tol, bool) or not 0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite real of at least 0, got {tol!r}")
    seeds = [None if s is None else np.unique(np.asarray(list(s), np.int64))
             for s, _ in lanes]
    transposed = [bool(t) for _, t in lanes]
    count = len(lanes)
    ids, first = np.unique(vertices["id"].to_numpy(np.int64), return_index=True)
    label = vertices["name"].to_numpy(object)[first]
    n = ids.size
    src, dst = edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64)
    keep = np.isin(src, ids) & np.isin(dst, ids)
    s, d = np.searchsorted(ids, src[keep]), np.searchsorted(ids, dst[keep])
    seed = np.array([np.ones(n, bool) if r is None else np.isin(ids, r) for r in seeds])
    missing = [0 if r is None else r.size - int(m.sum()) for r, m in zip(seeds, seed)]
    tails = np.array([d if t else s for t in transposed])
    heads = np.array([s if t else d for t in transposed])
    out_degree = np.array([np.bincount(t, minlength=n) for t in tails])
    # Lane ``i`` of an (lanes, n) array is the slice [i·n, (i+1)·n) of its
    # ravel, so one bincount scatters the messages of every lane.
    shift = (np.arange(count) * n)[:, None]
    tails, heads = (tails + shift).ravel(), (heads + shift).ravel()
    x, send, update = program(ids, seed, out_degree)
    x = np.array(x, dtype=float).reshape(count, n)
    iterations = np.zeros(count, np.int64)
    delta = np.full(count, np.inf)
    active = np.ones(count, bool)
    for it in range(1, max_iter + 1):
        msg = np.bincount(heads, weights=send(x).ravel()[tails], minlength=count * n)
        new = update(x, msg.reshape(count, n))
        change = np.abs(new - x).sum(axis=1)
        x = np.where(active[:, None], new, x)
        iterations[active], delta[active] = it, change[active]
        active &= ~(change <= tol)
        if not active.any():
            break

    values = {f"value_{i}": x[i] for i in range(count)}
    return PregelResult(
        state=pd.DataFrame({"id": ids, "name": label, **values}),
        num_vertices=n,
        lanes=tuple(
            LaneResult(int(iterations[i]), float(delta[i]), bool(delta[i] <= tol), missing[i])
            for i in range(count)
        ),
    )


def iterate_frontier(
    seed: Iterable[int], edges: pd.DataFrame, *, max_depth: int
) -> tuple[set[int], set[int]]:
    """Two-way bounded BFS: the vertex ids within ``max_depth`` hops of
    ``seed`` following out-edges, and those following in-edges, expanded
    in the same loop.

    Runs on the driver over the edge arrays; the loop stops early once
    both frontiers are empty.

    Args:
        seed: the seed vertex ids.
        edges: pandas edge frame ``(src, dst)``.
        max_depth: number of hops to expand.

    Returns:
        ``(forward, backward)`` id sets; both contain the seeds. Used by
        CycleRank's K-ball pruning.
    """
    src = np.asarray(edges["src"], np.int64)
    dst = np.asarray(edges["dst"], np.int64)
    fwd = set(seed)
    bwd = set(fwd)
    new_fwd, new_bwd = set(fwd), set(bwd)
    for _ in range(max_depth):
        if not (new_fwd or new_bwd):
            break
        new_fwd = set(dst[np.isin(src, list(new_fwd))].tolist()) - fwd
        new_bwd = set(src[np.isin(dst, list(new_bwd))].tolist()) - bwd
        fwd |= new_fwd
        bwd |= new_bwd
    return fwd, bwd
