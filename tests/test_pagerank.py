"""PageRank / CheiRank against the dense NumPy reference and closed forms.

Full power-iteration runs are expensive on Spark (one Spark job per
superstep), so each configuration is computed once in a module fixture
and asserted many times.
"""
import pytest

from tests.graphs import (
    BOWTIE,
    COMPLETE4,
    CYCLE3,
    DANGLING_CHAIN,
    DISCONNECTED,
    STAR_IN,
    random_digraph,
)
from repro.core.pagerank import cheirank, pagerank
from repro.graph.graph import DiGraph
from repro.reference import cheirank_ref, pagerank_ref

RANDOM_A = random_digraph(12, 0.25, seed=7)
RANDOM_B = random_digraph(15, 0.2, seed=42)

CASES = {
    "cycle3": (CYCLE3, 0.85),
    "bowtie": (BOWTIE, 0.85),
    "star_in": (STAR_IN, 0.85),
    "complete4": (COMPLETE4, 0.85),
    "dangling_chain": (DANGLING_CHAIN, 0.85),
    "disconnected": (DISCONNECTED, 0.85),
    "random_a": (RANDOM_A, 0.85),
    "random_b_low_alpha": (RANDOM_B, 0.5),
}


@pytest.fixture(scope="module")
def pr_results(spark):
    """name -> (spark id->score, reference id->score)."""
    out = {}
    for name, (edges, alpha) in CASES.items():
        g = DiGraph.from_edges(spark, edges)
        got = {
            r["id"]: r["score"]
            for r in pagerank(g, alpha=alpha, max_iter=60, tol=1e-10).collect()
        }
        out[name] = (got, pagerank_ref(edges, alpha=alpha))
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(pr_results, name):
    got, want = pr_results[name]
    assert set(got) == set(want)
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=2e-5), f"vertex {v}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_scores_sum_to_one(pr_results, name):
    got, _ = pr_results[name]
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scores_positive(pr_results, name):
    got, _ = pr_results[name]
    assert all(v > 0 for v in got.values())


def test_uniform_on_cycle(pr_results):
    got, _ = pr_results["cycle3"]
    for v in got.values():
        assert v == pytest.approx(1.0 / 3, abs=1e-8)


def test_uniform_on_complete(pr_results):
    got, _ = pr_results["complete4"]
    for v in got.values():
        assert v == pytest.approx(0.25, abs=1e-8)


def test_star_centre_wins(pr_results):
    got, _ = pr_results["star_in"]
    assert max(got, key=got.get) == 0


def test_dangling_mass_conserved(pr_results):
    got, _ = pr_results["dangling_chain"]
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)


def test_ranking_matches_reference_order(pr_results):
    got, want = pr_results["random_a"]
    got_order = sorted(got, key=lambda v: (-got[v], v))
    want_order = sorted(want, key=lambda v: (-want[v], v))
    assert got_order == want_order


def test_alpha_zero_uniform(spark):
    g = DiGraph.from_edges(spark, STAR_IN)
    got = {r["id"]: r["score"] for r in pagerank(g, alpha=0.0, max_iter=5).collect()}
    for v in got.values():
        assert v == pytest.approx(0.2, abs=1e-9)


def test_invalid_alpha_raises(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(ValueError, match="alpha"):
        pagerank(g, alpha=1.5)


# -- CheiRank -----------------------------------------------------------


@pytest.fixture(scope="module")
def cheir_results(spark):
    g = DiGraph.from_edges(spark, RANDOM_A)
    got = {
        r["id"]: r["score"]
        for r in cheirank(g, max_iter=60, tol=1e-10).collect()
    }
    return got, cheirank_ref(RANDOM_A)


def test_cheirank_matches_reference(cheir_results):
    got, want = cheir_results
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=2e-5)


def test_cheirank_sums_to_one(cheir_results):
    got, _ = cheir_results
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)


def test_cheirank_is_pagerank_on_transpose(spark):
    g = DiGraph.from_edges(spark, STAR_IN)
    a = {r["id"]: r["score"] for r in cheirank(g, max_iter=40).collect()}
    b = {
        r["id"]: r["score"]
        for r in pagerank(g.transpose(), max_iter=40).collect()
    }
    for v in a:
        assert a[v] == pytest.approx(b[v], abs=1e-9)


#: Spark jobs PageRank starts outside its supersteps: 1 for the vertex
#: count and 1 for the initial checkpoint, which groups the edges into
#: out-edge lists in the vertex state's one partition.
SETUP_JOBS = 2


def test_one_spark_job_per_superstep(spark, count_jobs):
    """A superstep runs in one partition with no exchange, so it is the
    checkpoint's job alone; dangling mass and the L1 delta are observed
    in it (24 jobs when a superstep was an exchange plus the checkpoint)."""
    g = DiGraph.from_edges(spark, DANGLING_CHAIN)
    jobs = count_jobs(lambda: pagerank(g, max_iter=10, tol=0.0))
    assert jobs <= 10 + SETUP_JOBS
