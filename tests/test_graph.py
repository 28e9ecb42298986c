"""Tests for the DataFrame-backed DiGraph substrate."""
import numpy as np
import pandas as pd
import pytest

from tests.graphs import BOWTIE, CYCLE3, STAR_IN
from repro.graph.graph import DiGraph, id_in


@pytest.fixture(scope="module")
def bowtie(spark):
    return DiGraph.from_edges(spark, BOWTIE, names={0: "zero", 1: "one"})


def test_from_edges_counts(spark, bowtie):
    assert bowtie.num_vertices() == 5
    assert bowtie.num_edges() == len(BOWTIE)


def test_from_edges_deduplicates(spark):
    g = DiGraph.from_edges(spark, [(0, 1), (0, 1), (1, 0)])
    assert g.num_edges() == 2


def test_from_edges_pandas_input(spark):
    pdf = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 0, 1], "weight": [1.0, 2.0, 3.0]})
    g = DiGraph.from_edges(spark, pdf)
    assert g.edges.columns == ["src", "dst"]
    assert g.num_edges() == 2
    assert g.num_vertices() == 2


def test_from_edges_starts_no_spark_job(spark, count_jobs):
    assert count_jobs(lambda: DiGraph.from_edges(spark, BOWTIE, names={0: "zero"})) == 0


def test_default_names(spark):
    g = DiGraph.from_edges(spark, [(7, 8)])
    names = {r["id"]: r["name"] for r in g.vertices.collect()}
    assert names == {7: "node_7", 8: "node_8"}


def test_explicit_names_with_fallback(bowtie):
    names = {r["id"]: r["name"] for r in bowtie.vertices.collect()}
    assert names[0] == "zero"
    assert names[1] == "one"
    assert names[3] == "node_3"


# -- degrees (counted in pandas from the edge list) ---------------------


def _degrees(g, column):
    """Vertex id -> number of edges whose ``column`` (``src``: out-degree,
    ``dst``: in-degree) is that vertex."""
    counts = g.edges.toPandas()[column].value_counts()
    return {int(v): int(counts.get(v, 0)) for v in g.vertices.toPandas()["id"]}


def test_star_in_degree(spark):
    g = DiGraph.from_edges(spark, STAR_IN)
    degs = _degrees(g, "dst")
    assert degs[0] == 4


# -- transpose ----------------------------------------------------------


def test_transpose_reverses_edges(spark):
    g = DiGraph.from_edges(spark, [(0, 1), (1, 2)])
    t = {(r["src"], r["dst"]) for r in g.transpose().edges.collect()}
    assert t == {(1, 0), (2, 1)}


def test_transpose_involution(spark, bowtie):
    tt = {(r["src"], r["dst"]) for r in bowtie.transpose().transpose().edges.collect()}
    assert tt == set(BOWTIE)


def test_transpose_swaps_degrees(spark, bowtie):
    outs = _degrees(bowtie, "src")
    t_ins = _degrees(bowtie.transpose(), "dst")
    assert outs == t_ins


# -- subgraph -----------------------------------------------------------


def test_subgraph_induced(spark, bowtie):
    sub = bowtie.subgraph([0, 1, 2])
    assert sub.num_vertices() == 3
    got = {(r["src"], r["dst"]) for r in sub.edges.collect()}
    assert got == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}


def test_subgraph_empty(spark, bowtie):
    sub = bowtie.subgraph([101, 102])
    assert sub.num_vertices() == 0
    assert sub.num_edges() == 0


# -- lookups ------------------------------------------------------------


def test_id_of(bowtie):
    assert bowtie.id_of("zero") == 0


def test_id_of_missing_raises(bowtie):
    with pytest.raises(KeyError):
        bowtie.id_of("missing")


def test_names_of(bowtie):
    assert bowtie.names_of([0, 3]) == {0: "zero", 3: "node_3"}


# -- id_in --------------------------------------------------------------


def test_id_in_empty_matches_no_row(bowtie):
    assert bowtie.vertices.filter(id_in("id", [])).count() == 0


def test_id_in_accepts_numpy_ids(bowtie):
    ids = np.array([0, 3], dtype="int64")
    got = {r["id"] for r in bowtie.vertices.filter(id_in("id", ids)).collect()}
    assert got == {0, 3}


@pytest.mark.parametrize("bad", [1.5, "1) OR (1=1"])
def test_id_in_rejects_non_integers_before_spark(count_jobs, bad):
    def run():
        with pytest.raises(TypeError):
            id_in("id", [0, bad])

    assert count_jobs(run) == 0


def test_cycle3_roundtrip(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    assert g.num_vertices() == 3
    assert g.num_edges() == 3
