"""Tests for the DataFrame-backed DiGraph substrate."""
import pandas as pd
import pytest

from tests.graphs import BOWTIE, CYCLE3, STAR_IN
from repro.graph.graph import DiGraph


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


def test_cycle3_roundtrip(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    assert g.num_vertices() == 3
    assert g.num_edges() == 3
