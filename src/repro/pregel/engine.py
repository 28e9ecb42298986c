"""A GraphX-Pregel-style superstep engine over Spark DataFrames.

GraphX is JVM-only and unavailable from PySpark without external
packages, so this module reimplements the superstep model of Pregel
(Malewicz et al., SIGMOD 2010) with DataFrame operations:

* **Vertices own their out-edges.** Before the first superstep the edge
  list is grouped into an ``out`` array per vertex (empty for sinks) and
  stored in the vertex state, so sending needs no join.
* **One partition, no exchange.** The graphs of this demo fit in one
  partition, and every graph already arrives as one (built on the
  driver or loaded from the datastore). The engine keeps the vertex
  state there: the vertex rows and the messages (or, before the first
  superstep, the edges) are coalesced to one partition before each
  ``groupBy``, whose distribution one partition already satisfies. So
  nothing is shuffled whatever the caller's partitioning, and the state
  it returns is one partition too.
* **One groupBy per superstep.** Each vertex sends its message
  (``send_msg``) along every element of ``explode(out)``. The messages
  are unioned with the vertices' own rows and reduced by a single
  ``groupBy("id")`` that keeps the state (``first`` non-null) and sums
  the messages into ``msg``. The vertex program (``update``) then
  computes the new value from the state columns and ``msg``. Groups
  without a state row are dropped: messages to unknown ids vanish.
* **Aggregators.** Global values (``aggregators``) and the L1 delta
  between successive values are computed with ``DataFrame.observe``
  inside the eager ``localCheckpoint`` that ends the superstep, so they
  cost no extra Spark job. Values aggregated in superstep S are handed
  to ``update`` in superstep S+1; the delta is exact and is checked
  after every superstep.

The checkpoint also truncates lineage: without it, 30+ chained
supersteps make Catalyst analysis time explode. A superstep thus runs
one Spark job, the checkpoint, in which the messages, the groupBy, the
vertex program and the observed metrics all run as one stage. Each
DataFrame call is analysed eagerly on the driver, so a superstep makes
as few as it can.

The bounded BFS (:func:`iterate_frontier`) keeps its few frontier ids on
the driver instead: one filtering scan of the edges per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from pyspark.sql import Column, DataFrame, Observation
from pyspark.sql import functions as F

from repro.graph.graph import id_in


@dataclass(frozen=True)
class PregelResult:
    """Outcome of a pregel run.

    Attributes:
        state: final vertex-state DataFrame, with the columns of the
            initial state.
        iterations: supersteps executed.
        delta: exact L1 distance between the values of the last two
            states.
        converged: whether ``delta <= tol`` stopped the loop (as opposed
            to hitting ``max_iter``).
    """

    state: DataFrame
    iterations: int
    delta: float
    converged: bool


def pregel(
    state: DataFrame,
    edges: DataFrame,
    send_msg: Column,
    update: Callable[[dict[str, float]], Column],
    *,
    aggregators: dict[str, Column] | None = None,
    max_iter: int = 50,
    tol: float = 1e-9,
) -> PregelResult:
    """Run supersteps until convergence or ``max_iter``.

    ``state`` and ``edges`` are brought into one partition on entry, so
    a superstep is one Spark job whatever the caller's partitioning.

    Args:
        state: initial vertex state, columns ``(id, value)`` with
            ``value`` double, plus any other columns, which are carried
            unchanged. The names ``out``, ``dst``, ``msg`` and ``_change``
            are the engine's.
        edges: edge frame, columns ``(src, dst)``; edges whose ``src``
            has no state row are ignored.
        send_msg: the message a vertex sends along each of its
            out-edges, a ``Column`` over its state columns and ``out``
            (the array of its out-neighbour ids).
        update: the vertex program. Given the previous superstep's
            aggregator values by name, returns the ``Column`` of the new
            ``value`` over the state columns and ``msg``, the sum of the
            vertex's incoming messages (null if it received none).
        aggregators: global aggregate columns over the state (the state
            columns and ``out``), by name. Each is evaluated on the state
            a superstep produces (and on the initial state) and passed
            to ``update`` in the next superstep.
        max_iter: superstep cap, at least 1.
        tol: L1 convergence threshold, at least 0.

    Returns:
        A :class:`PregelResult`; its ``state`` is one partition.

    Raises:
        ValueError: ``max_iter < 1`` or ``tol < 0``; raised before any
            Spark job runs.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    columns = state.columns
    fields = [c for c in columns if c != "id"]
    kept = tuple(F.first(c, ignorenulls=True).alias(c) for c in fields)
    has_state = F.col("out").isNotNull()
    # Vertex rows with an empty ``out`` ∪ one row per edge, grouped in one
    # partition: ``out`` collects each vertex's out-neighbours, and stays
    # null (so the group is dropped) where ``src`` has no vertex row.
    rows = state.withColumn("out", F.array().cast("array<long>")).unionByName(
        edges.select(F.col("src").alias("id"), "dst"), allowMissingColumns=True
    )
    first_out = F.first("out", ignorenulls=True)
    cur = (
        rows.coalesce(1)
        .groupBy("id")
        .agg(*kept, F.concat(first_out, F.collect_list("dst")).alias("out"))
        .filter(has_state)
    )
    named = [c.alias(k) for k, c in (aggregators or {}).items()]
    cur, aggs = _checkpoint(cur, named)
    # Columns do not depend on the superstep: build them once, as each
    # one is a round trip to the JVM.
    send = (F.explode("out").alias("id"), send_msg.alias("msg"))
    reduce = (*kept, first_out.alias("out"), F.sum("msg").alias("msg"))
    value = F.col("value")
    metrics = [F.sum("_change").alias("_delta"), *named]
    delta = float("inf")
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # The union of two one-partition frames is two partitions;
        # coalescing it back to one lets the groupBy run without an
        # exchange, so the superstep is the checkpoint's job alone.
        grouped = (
            cur.unionByName(cur.select(*send), allowMissingColumns=True)
            .coalesce(1)
            .groupBy("id")
            .agg(*reduce)
            .filter(has_state)
        )
        new = update(aggs)
        # ``_change`` stays in the stored state (the next superstep's
        # groupBy drops it), so no call is spent on dropping it here.
        nxt = grouped.select(
            "id",
            *(new.alias(c) if c == "value" else c for c in fields),
            "out",
            F.abs(new - value).alias("_change"),
        )
        cur, aggs = _checkpoint(nxt, metrics)
        delta = aggs.pop("_delta") or 0.0
        if delta <= tol:
            converged = True
            break
    return PregelResult(
        state=cur.select(*columns).coalesce(1),
        iterations=it,
        delta=delta,
        converged=converged,
    )


def _checkpoint(
    df: DataFrame, metrics: list[Column]
) -> tuple[DataFrame, dict[str, float]]:
    """Materialise ``df`` with an eager ``localCheckpoint`` and return it
    with ``metrics`` (named aggregate columns over ``df``) by name,
    observed in the same Spark job."""
    if not metrics:
        return df.localCheckpoint(eager=True), {}
    obs = Observation()
    return df.observe(obs, *metrics).localCheckpoint(eager=True), obs.get


def iterate_frontier(
    seed: Iterable[int], edges: DataFrame, *, max_depth: int
) -> tuple[set[int], set[int]]:
    """Two-way bounded BFS: the vertex ids within ``max_depth`` hops of
    ``seed`` following out-edges, and those following in-edges, expanded
    in the same loop.

    The frontiers live on the driver. Each level is one scan of
    ``edges`` for the rows leaving the new forward frontier or entering
    the new backward one (one Spark job, no shuffle); the loop stops
    early once both frontiers are empty. The driver receives at most one
    row per edge touching a frontier.

    Args:
        seed: the seed vertex ids.
        edges: edge frame ``(src, dst)``.
        max_depth: number of hops to expand.

    Returns:
        ``(forward, backward)`` id sets; both contain the seeds. Used by
        CycleRank's K-ball pruning.
    """
    fwd = set(seed)
    bwd = set(fwd)
    new_fwd, new_bwd = set(fwd), set(bwd)
    for _ in range(max_depth):
        if not (new_fwd or new_bwd):
            break
        touching = id_in("src", new_fwd) | id_in("dst", new_bwd)
        rows = edges.filter(touching).select("src", "dst").collect()
        new_fwd = {d for s, d in rows if s in new_fwd} - fwd
        new_bwd = {s for s, d in rows if d in new_bwd} - bwd
        fwd |= new_fwd
        bwd |= new_bwd
    return fwd, bwd
