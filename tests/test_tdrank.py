"""2DRank: the square sweep, its reference, and the full pipeline."""
import pandas as pd
import pytest

from tests.graphs import BOWTIE, STAR_IN, random_digraph
from repro.core.ranking import rank_by
from repro.core.tdrank import combine_ranks, personalized_twodrank, twodrank
from repro.reference import (
    cheirank_ref,
    pagerank_ref,
    ranks_ref,
    twodrank_ref,
)

RANDOM_A = random_digraph(12, 0.25, seed=7)


def _score_df(k, kstar):
    """``(id, name, score_0, score_1)`` whose ranks, largest score first,
    are ``k`` and ``kstar``."""
    return pd.DataFrame(
        [(v, f"n{v}", -float(k[v]), -float(kstar[v])) for v in k],
        columns=["id", "name", "score_0", "score_1"],
    )


def test_combine_ranks_diagonal():
    k = {0: 1, 1: 2, 2: 3}
    out = combine_ranks(_score_df(k, k))
    got = {r["id"]: r["rank"] for r in out.to_dict("records")}
    assert got == k
    assert {r["id"]: r["name"] for r in out.to_dict("records")} == {v: f"n{v}" for v in k}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_combine_ranks_matches_reference_on_permutations(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = 8
    k = {i: int(r) + 1 for i, r in enumerate(rng.permutation(n))}
    kstar = {i: int(r) + 1 for i, r in enumerate(rng.permutation(n))}
    out = combine_ranks(_score_df(k, kstar))
    got = {r["id"]: r["rank"] for r in out.to_dict("records")}
    assert got == twodrank_ref(k, kstar)


def test_combine_ranks_is_permutation():
    k = {0: 2, 1: 1, 2: 3, 3: 4}
    kstar = {0: 4, 1: 3, 2: 1, 3: 2}
    out = combine_ranks(_score_df(k, kstar))
    assert sorted(r["rank"] for r in out.to_dict("records")) == [1, 2, 3, 4]


@pytest.fixture(scope="module")
def twod_random(spark):
    from repro.graph.graph import DiGraph

    g = DiGraph.from_edges(spark, RANDOM_A)
    got = {
        r["id"]: r["rank"]
        for r in twodrank(g, max_iter=60, tol=1e-10).to_dict("records")
    }
    pr = ranks_ref(pagerank_ref(RANDOM_A))
    cr = ranks_ref(cheirank_ref(RANDOM_A))
    return got, twodrank_ref(pr, cr)


def test_twodrank_matches_reference(twod_random):
    got, want = twod_random
    assert got == want


def test_twodrank_is_full_ranking(twod_random):
    got, _ = twod_random
    assert sorted(got.values()) == list(range(1, len(got) + 1))


def test_twodrank_produces_ranking_not_scores(spark):
    """Section II: 2DRank 'does not assign a score to each node, but
    just produces a ranking' — the output column is ``rank``, beside the
    vertex's id and name."""
    from repro.graph.graph import DiGraph

    g = DiGraph.from_edges(spark, BOWTIE)
    out = twodrank(g, max_iter=20)
    assert set(out.columns) == {"id", "name", "rank"}


def test_twodrank_collect_spark_jobs(spark, count_jobs):
    """Both power iterations are lanes of one run on the driver, and both
    ranks and the sweep are pandas sorts: no job (1 when the run
    collected the graph from Spark, 2 more when the ranks were windows
    over a Spark frame, 4 when the two rank frames were joined)."""
    from repro.graph.graph import DiGraph

    g = DiGraph.from_edges(spark, BOWTIE)
    assert count_jobs(lambda: twodrank(g)) == 0


def test_personalized_twodrank_matches_reference(spark):
    from repro.graph.graph import DiGraph

    g = DiGraph.from_edges(spark, RANDOM_A)
    got = {
        r["id"]: r["rank"]
        for r in personalized_twodrank(g, 5, max_iter=60, tol=1e-10).to_dict("records")
    }
    pr = ranks_ref(pagerank_ref(RANDOM_A, refs=[5]))
    cr = ranks_ref(pagerank_ref([(d, s) for s, d in RANDOM_A], refs=[5]))
    assert got == twodrank_ref(pr, cr)


def test_personalized_twodrank_star(spark):
    """On the in-star from ref 0, rankings stay deterministic and
    complete."""
    from repro.graph.graph import DiGraph

    g = DiGraph.from_edges(spark, STAR_IN)
    out = personalized_twodrank(g, 0, max_iter=30)
    assert sorted(r["rank"] for r in out.to_dict("records")) == [1, 2, 3, 4, 5]


def test_ranks_helper_consistency():
    """repro.core.ranking.rank_by (twodrank's ranks) agrees with ranks_ref
    on the same scores."""
    scores = {0: 0.4, 1: 0.1, 2: 0.4, 3: 0.9}
    df = pd.DataFrame(list(scores.items()), columns=["id", "score"])
    got = {r["id"]: r["rank"] for r in rank_by(df, "score").to_dict("records")}
    assert got == ranks_ref(scores)
