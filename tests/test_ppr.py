"""Personalized PageRank / CheiRank against the dense reference."""
import pytest

from tests.graphs import BOWTIE, CYCLE3, DANGLING_CHAIN, DISCONNECTED, random_digraph
from repro.core.ppr import personalized_cheirank, personalized_pagerank
from repro.graph.graph import DiGraph
from repro.reference import pagerank_ref

RANDOM_A = random_digraph(12, 0.25, seed=7)

CASES = {
    "bowtie_r0": (BOWTIE, [0], 0.85),
    "bowtie_r0_low_alpha": (BOWTIE, [0], 0.3),
    "bowtie_multi_ref": (BOWTIE, [0, 3], 0.85),
    "disconnected_r0": (DISCONNECTED, [0], 0.85),
    "dangling_r0": (DANGLING_CHAIN, [0], 0.85),
    "random_a_r5": (RANDOM_A, [5], 0.85),
}


@pytest.fixture(scope="module")
def ppr_results(spark):
    out = {}
    for name, (edges, refs, alpha) in CASES.items():
        g = DiGraph.from_edges(spark, edges)
        got = {
            r["id"]: r["score"]
            for r in personalized_pagerank(
                g, refs, alpha=alpha, max_iter=60, tol=1e-10
            ).to_dict("records")
        }
        out[name] = (got, pagerank_ref(edges, refs=refs, alpha=alpha))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(ppr_results, name):
    got, want = ppr_results[name]
    assert set(got) == set(want)
    for v in want:
        # 60 power iterations leave an O(alpha^60) ~ 6e-5 residual
        assert got[v] == pytest.approx(want[v], abs=1e-4), f"vertex {v}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_sums_to_one(ppr_results, name):
    got, _ = ppr_results[name]
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)


def test_ref_dominates_at_low_alpha(ppr_results):
    got, _ = ppr_results["bowtie_r0_low_alpha"]
    assert max(got, key=got.get) == 0
    assert got[0] > 0.5


def test_unreachable_component_zero(ppr_results):
    got, _ = ppr_results["disconnected_r0"]
    assert got[2] == pytest.approx(0.0, abs=1e-9)
    assert got[3] == pytest.approx(0.0, abs=1e-9)


def test_multi_ref_teleports_split(ppr_results):
    got, _ = ppr_results["bowtie_multi_ref"]
    assert got[0] > 0.1
    assert got[3] > 0.1


def test_dangling_mass_returns_to_ref(ppr_results):
    """In the dangling chain, the sink's mass teleports back to the ref,
    so the ref keeps the largest score."""
    got, _ = ppr_results["dangling_r0"]
    assert max(got, key=got.get) == 0


def test_single_int_ref_accepted(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    got = {
        r["id"]: r["score"]
        for r in personalized_pagerank(g, 0, alpha=0.5, max_iter=40).to_dict("records")
    }
    want = pagerank_ref(CYCLE3, refs=[0], alpha=0.5)
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=1e-5)


def test_missing_ref_raises(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(KeyError, match="not present"):
        personalized_pagerank(g, 99)


def test_bad_alpha_raises_before_spark(spark, count_jobs):
    g = DiGraph.from_edges(spark, CYCLE3)

    def run():
        with pytest.raises(ValueError, match="alpha"):
            personalized_pagerank(g, 0, alpha=1.5)

    assert count_jobs(run) == 0
    with pytest.raises(KeyError, match="not present"):
        personalized_pagerank(g, 99, alpha=0.5)


def test_empty_refs_raises(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(ValueError, match="non-empty"):
        personalized_pagerank(g, [])


def test_personalized_cheirank_matches_transposed_reference(spark):
    g = DiGraph.from_edges(spark, RANDOM_A)
    got = {
        r["id"]: r["score"]
        for r in personalized_cheirank(g, 5, max_iter=60, tol=1e-10).to_dict("records")
    }
    want = pagerank_ref([(d, s) for s, d in RANDOM_A], refs=[5], alpha=0.85)
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=2e-5)


def test_personalized_cheirank_sums_to_one(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    got = [
        r["score"]
        for r in personalized_cheirank(g, 0, max_iter=40).to_dict("records")
    ]
    assert sum(got) == pytest.approx(1.0, abs=1e-6)
