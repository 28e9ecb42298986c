"""Tests for ranking helpers (rank_by, top-k, contamination) and the
DuckDB oracle they are checked against."""
import pandas as pd
import pytest

from repro.core.ranking import contamination, rank_by, top_k
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def scores_df():
    rows = [(0, 0.9), (1, 0.5), (2, 0.5), (3, 0.1), (4, 0.7)]
    return pd.DataFrame(
        [(i, f"n{i}", score) for i, score in rows], columns=["id", "name", "score"]
    )


def ranks(scores, *, ascending=False):
    return rank_by(scores, "score", ascending=ascending)[["id", "score", "rank"]]


def test_ranks_descending(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df).to_dict("records")}
    assert got[0] == 1
    assert got[4] == 2
    assert got[3] == 5


def test_ranks_tie_broken_by_id(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df).to_dict("records")}
    assert got[1] == 3
    assert got[2] == 4


def test_ranks_ascending(scores_df):
    got = {r["id"]: r["rank"] for r in ranks(scores_df, ascending=True).to_dict("records")}
    assert got[3] == 1
    assert got[0] == 5


def test_ranks_oracle(scores_df):
    assert_equivalent(
        ranks(scores_df),
        """
        SELECT id, score,
               ROW_NUMBER() OVER (ORDER BY score DESC, id ASC) AS rank
        FROM scores
        """,
        scores=scores_df,
    )


def test_top_k(scores_df):
    got = top_k(scores_df, 3)
    assert list(got.columns) == ["id", "score", "rank", "name"]
    assert [str(t) for t in got.dtypes] == ["int64", "float64", "int64", "object"]
    assert list(zip(got["id"], got["rank"], got["name"])) == [
        (0, 1, "n0"), (4, 2, "n4"), (1, 3, "n1")
    ]


def test_top_k_larger_than_n(scores_df):
    assert len(top_k(scores_df, 99)) == 5


def test_top_k_starts_no_spark_job(scores_df, count_jobs):
    """The scores and their names are already on the driver, so top-k is
    a pandas sort (one job when it was a sorted ``limit`` over a Spark
    frame)."""
    assert count_jobs(lambda: top_k(scores_df, 3)) == 0


def test_top_k_oracle(scores_df):
    assert_equivalent(
        top_k(scores_df, 3),
        """
        SELECT id, score, rank, name FROM (
            SELECT id, score, name,
                   ROW_NUMBER() OVER (ORDER BY score DESC, id ASC) AS rank
            FROM scores
        ) WHERE rank <= 3
        """,
        scores=scores_df,
    )


def test_oracle_detects_wrong_result(scores_df):
    with pytest.raises(AssertionError):
        assert_equivalent(
            scores_df, "SELECT id, name, score + 1 AS score FROM scores", scores=scores_df
        )


def test_oracle_detects_column_mismatch(scores_df):
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            scores_df, "SELECT id, name, score AS wrong_name FROM scores", scores=scores_df
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
