"""CycleRank cycle counts vs a DuckDB recursive-CTE oracle.

The implementation prunes the graph to the (K−1)-ball around the
reference with a two-way BFS over the edges read to the driver and
counts the cycles by a DFS there; DuckDB enumerates the same cycles over the *whole* graph
with a ``WITH RECURSIVE`` walk carrying the visited list, so the
pruning is checked as well. ``assert_equivalent``
diffs the full per-(node, length) count tables, so a missed path, a
double-counted cycle, or a broken simple-path filter fails loudly.
"""
import pytest

from tests.graphs import BOWTIE, COMPLETE4, CYCLE3, random_digraph
from repro.core.cyclerank import cycle_counts, prune_to_k_ball
from repro.graph.graph import DiGraph
from repro.oracle import assert_equivalent

RANDOM_C = random_digraph(10, 0.3, seed=11)
RANDOM_D = random_digraph(9, 0.35, seed=23)


def _cycle_sql(ref: int, k: int) -> str:
    """Per-(id, length) simple-cycle counts through ``ref``, lengths 2..k."""
    return f"""
    WITH RECURSIVE walk(head, path, closed) AS (
        SELECT CAST({ref} AS BIGINT),
               [CAST({ref} AS BIGINT)],
               FALSE
        UNION ALL
        SELECT e.dst,
               list_append(w.path, e.dst),
               e.dst = {ref}
        FROM walk w
        JOIN edges e ON w.head = e.src AND e.src <> e.dst
        WHERE NOT w.closed
          AND len(w.path) <= {k}
          AND (e.dst = {ref}
               OR (NOT list_contains(w.path, e.dst) AND len(w.path) < {k}))
    )
    SELECT id, length, COUNT(*) AS n_cycles
    FROM (
        SELECT unnest(list_slice(path, 1, len(path) - 1)) AS id,
               len(path) - 1 AS length
        FROM walk WHERE closed
    )
    GROUP BY id, length
    """


@pytest.mark.parametrize(
    "edges,ref,k",
    [
        (CYCLE3, 0, 3),
        (BOWTIE, 0, 2),
        (BOWTIE, 0, 3),
        (BOWTIE, 0, 4),
        (BOWTIE, 2, 3),
        (COMPLETE4, 0, 4),
        (COMPLETE4, 1, 3),
        (RANDOM_C, 2, 3),
        (RANDOM_C, 2, 4),
        (RANDOM_D, 0, 5),
    ],
)
def test_cycle_counts_match_duckdb(spark, edges, ref, k):
    g = DiGraph.from_edges(spark, edges)
    _, got = cycle_counts(g, ref, k)
    assert_equivalent(got, _cycle_sql(ref, k), edges=g.edges.toPandas())


def test_cycle_counts_match_duckdb_with_pruning(spark):
    """Ref 5 at K=3: the pruned ball leaves vertices out."""
    g = DiGraph.from_edges(spark, RANDOM_C)
    _, ball, _ = prune_to_k_ball(g, 5, 3)
    assert ball < {v for e in RANDOM_C for v in e}
    _, got = cycle_counts(g, 5, 3)
    assert_equivalent(got, _cycle_sql(5, 3), edges=g.edges.toPandas())
