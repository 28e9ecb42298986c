"""Micro-benchmarks for the individual algorithms on one shared graph.

Times PageRank vs PPR vs CycleRank (K=3 and K=5) on the benchmark-scale
English wikilink graph. The paper's demo motivation — CycleRank's
locality (after (K−1)-ball pruning its cost depends on the reference's
neighbourhood, not the graph size) vs the global power iterations — is
visible directly in these timings. PageRank and PPR are also checked
against the dense NumPy power iteration (|Δ|∞ < 1e-6), CycleRank against
the DFS reference (|Δ|∞ < 1e-9).
"""
import pytest

from repro.core.cyclerank import cyclerank
from repro.core.pagerank import pagerank
from repro.core.ppr import personalized_pagerank
from repro.datasets.wikilink import wikilink
from repro.reference import cyclerank_ref, pagerank_ref

SCALE = 2.0


@pytest.fixture(scope="module")
def wiki(spark):
    return wikilink(spark, "en", 2018, scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def wiki_edges(wiki):
    return [(r["src"], r["dst"]) for r in wiki.graph.edges.collect()]


def _assert_matches_reference(scores, want, tol=1e-6):
    got = dict(zip(scores["id"], scores["score"]))
    assert set(got) == set(want)
    assert max(abs(got[v] - want[v]) for v in want) < tol


def test_bench_pagerank(benchmark, wiki, wiki_edges):
    out = benchmark.pedantic(
        lambda: pagerank(wiki.graph, alpha=0.85), rounds=1, iterations=1
    )
    assert len(out) == wiki.graph.num_vertices()
    _assert_matches_reference(out, pagerank_ref(wiki_edges, alpha=0.85))


def test_bench_ppr(benchmark, wiki, wiki_edges):
    ref = wiki.id_of("Freddie Mercury")
    out = benchmark.pedantic(
        lambda: personalized_pagerank(wiki.graph, ref, alpha=0.3),
        rounds=1,
        iterations=1,
    )
    assert len(out) == wiki.graph.num_vertices()
    _assert_matches_reference(out, pagerank_ref(wiki_edges, alpha=0.3, refs=[ref]))


@pytest.mark.parametrize("k", [3, 5])
def test_bench_cyclerank(benchmark, wiki, wiki_edges, k):
    ref = wiki.id_of("Freddie Mercury")
    out = benchmark.pedantic(
        lambda: cyclerank(wiki.graph, ref, k=k), rounds=1, iterations=1
    )
    assert len(out) == wiki.graph.num_vertices()
    _assert_matches_reference(out, cyclerank_ref(wiki_edges, ref, k), tol=1e-9)
