"""Tests for ranking helpers (ranks, top-k, contamination) and the
DuckDB oracle they are checked against."""
import pytest

from repro.core.ranking import contamination, ranks, top_k
from repro.graph.graph import DiGraph
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def scores_df(spark):
    rows = [(0, 0.9), (1, 0.5), (2, 0.5), (3, 0.1), (4, 0.7)]
    return spark.createDataFrame(rows, "id long, score double")


def test_ranks_descending(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df).collect()}
    assert got[0] == 1
    assert got[4] == 2
    assert got[3] == 5


def test_ranks_tie_broken_by_id(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df).collect()}
    assert got[1] == 3
    assert got[2] == 4


def test_ranks_ascending(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df, ascending=True).collect()}
    assert got[3] == 1
    assert got[0] == 5


def test_ranks_oracle(spark, scores_df):
    assert_equivalent(
        ranks(scores_df),
        """
        SELECT id, score,
               ROW_NUMBER() OVER (ORDER BY score DESC, id ASC) AS rank
        FROM scores
        """,
        scores=scores_df,
    )


@pytest.fixture(scope="module")
def named(spark):
    return DiGraph.from_edges(
        spark,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        names={i: f"n{i}" for i in range(5)},
    )


def test_top_k(named, scores_df):
    got = top_k(named, scores_df, 3)
    assert list(got.columns) == ["id", "score", "rank", "name"]
    assert list(zip(got["id"], got["rank"], got["name"])) == [
        (0, 1, "n0"), (4, 2, "n4"), (1, 3, "n1")
    ]


def test_top_k_larger_than_n(named, scores_df):
    assert len(top_k(named, scores_df, 99)) == 5


def test_top_k_oracle(named, scores_df):
    assert_equivalent(
        top_k(named, scores_df, 3),
        """
        SELECT r.id, r.score, r.rank, v.name FROM (
            SELECT id, score,
                   ROW_NUMBER() OVER (ORDER BY score DESC, id ASC) AS rank
            FROM scores
        ) r LEFT JOIN vertices v USING (id) WHERE r.rank <= 3
        """,
        scores=scores_df,
        vertices=named.vertices,
    )


def test_oracle_detects_wrong_result(scores_df):
    with pytest.raises(AssertionError):
        assert_equivalent(
            scores_df, "SELECT id, score + 1 AS score FROM scores", scores=scores_df
        )


def test_oracle_detects_column_mismatch(scores_df):
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            scores_df, "SELECT id, score AS wrong_name FROM scores", scores=scores_df
        )


# -- contamination ------------------------------------------------------


@pytest.mark.parametrize(
    "topk,bad,expected",
    [
        (["a", "b", "c", "d", "e"], {"x"}, 0.0),
        (["a", "b", "c", "d", "e"], {"a", "e"}, 0.4),
        (["a", "b"], {"a", "b"}, 1.0),
        ([], {"a"}, 0.0),
    ],
)
def test_contamination(topk, bad, expected):
    assert contamination(topk, bad) == pytest.approx(expected)
