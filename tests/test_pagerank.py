"""PageRank / CheiRank against the dense NumPy reference and closed forms,
and the lanes and the vertex program of the shared power iteration.

A power-iteration run starts no Spark job whatever its superstep count;
each configuration is still computed once in a module fixture and
asserted many times.
"""
import os

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
import repro.core.pagerank as pagerank_module
from repro.core.pagerank import _power_iteration, cheirank, pagerank
from repro.core.ppr import personalized_pagerank
from repro.datasets.wikilink import wikilink
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
            for r in pagerank(g, alpha=alpha, max_iter=60, tol=1e-10).to_dict("records")
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
    got = {r["id"]: r["score"] for r in pagerank(g, alpha=0.0, max_iter=5).to_dict("records")}
    for v in got.values():
        assert v == pytest.approx(0.2, abs=1e-9)


def test_empty_graph_raises(spark):
    """No vertices: PageRank raises that the graph has none, and PPR
    that its reference is not present."""
    g = DiGraph.from_edges(spark, [])
    with pytest.raises(ValueError, match="no vertices"):
        pagerank(g)
    with pytest.raises(KeyError, match="1 reference id"):
        personalized_pagerank(g, 0)


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
        for r in cheirank(g, max_iter=60, tol=1e-10).to_dict("records")
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
    a = {r["id"]: r["score"] for r in cheirank(g, max_iter=40).to_dict("records")}
    b = {
        r["id"]: r["score"]
        for r in pagerank(
            DiGraph.from_edges(spark, [(d, s) for s, d in STAR_IN]), max_iter=40
        ).to_dict("records")
    }
    for v in a:
        assert a[v] == pytest.approx(b[v], abs=1e-9)


#: Allowance for Spark jobs outside the supersteps (a vertex count and the
#: out-edge grouping, when each superstep was a job of its own). The whole
#: run is now the one collect of the graph, well inside the bound.
SETUP_JOBS = 2


def test_one_spark_job_per_superstep(spark, count_jobs):
    """At most one Spark job per superstep: the whole run is on the
    driver, dangling mass and the L1 delta included (24 jobs when a
    superstep was an exchange plus a checkpoint)."""
    g = DiGraph.from_edges(spark, DANGLING_CHAIN)
    jobs = count_jobs(lambda: pagerank(g, max_iter=10, tol=0.0))
    assert jobs <= 10 + SETUP_JOBS


def test_spark_jobs_do_not_grow_with_supersteps(spark, count_jobs):
    """PageRank after 10 or after 40 supersteps starts no job: the engine
    iterates over the graph's pandas frames (1 job when it collected the
    graph from Spark, 13 and 43 when each superstep was a job)."""
    g = DiGraph.from_edges(spark, DANGLING_CHAIN)
    ten, forty = (count_jobs(lambda: pagerank(g, max_iter=m, tol=0.0)) for m in (10, 40))
    assert ten == forty == 0


# -- lanes ----------------------------------------------------------------


@pytest.fixture(scope="module")
def lane_runs(spark):
    """PR α=0.85 and two PPR α=0.3 lanes on RANDOM_A, run together and one
    by one; ``pregel`` is wrapped to keep each run's per-lane outcome."""
    g = DiGraph.from_edges(spark, RANDOM_A)
    lanes = [(None, 0.85, False), ([5], 0.3, False), ([0, 7], 0.3, False)]
    results = []

    def kept(*args, **kwargs):
        results.append(pregel(*args, **kwargs))
        return results[-1]

    pregel = pagerank_module.pregel
    pagerank_module.pregel = kept
    try:
        rows = _power_iteration(g, lanes, 60, 1e-10).to_dict("records")
        together = [{r["id"]: r[f"score_{i}"] for r in rows} for i in range(len(lanes))]
        alone = [
            {r["id"]: r["score_0"]
             for r in _power_iteration(g, [lane], 60, 1e-10).to_dict("records")}
            for lane in lanes
        ]
    finally:
        pagerank_module.pregel = pregel
    return together, alone, results[0].lanes, [r.lanes[0] for r in results[1:]]


def test_lanes_give_single_lane_values(lane_runs):
    together, alone, _, _ = lane_runs
    assert together == alone


def test_lanes_freeze_at_their_own_convergence(lane_runs):
    """Each lane's supersteps, final delta and convergence are those of
    its single-lane run, and the lanes converge at different supersteps."""
    _, _, together, alone = lane_runs
    assert together == tuple(alone)
    assert all(lane.converged for lane in together)
    assert len({lane.iterations for lane in together}) > 1


def test_vertex_program_runs_on_the_driver(spark, monkeypatch):
    """The vertex program ``_power_iteration`` hands to ``pregel`` runs in
    this process, not in a Python worker; its output matches the oracle,
    and the vertex rows' names come back with it."""
    names = {v: f"nœud {v}" for e in RANDOM_A for v in e}
    g = DiGraph.from_edges(spark, RANDOM_A, names=names)
    pregel = pagerank_module.pregel
    pids = []

    def kept(vertices, edges, program, **kwargs):
        def recorded(*args):
            pids.append(os.getpid())
            return program(*args)

        return pregel(vertices, edges, recorded, **kwargs)

    monkeypatch.setattr(pagerank_module, "pregel", kept)
    lanes = [(None, 0.85, False), ([5], 0.3, True)]
    rows = _power_iteration(g, lanes, 60, 1e-10).to_dict("records")
    assert pids == [os.getpid()]
    assert {r["id"]: r["name"] for r in rows} == names
    got = {r["id"]: r["score_0"] for r in rows}
    want = pagerank_ref(RANDOM_A, alpha=0.85)
    assert max(abs(got[v] - want[v]) for v in want) < 2e-5


def test_default_cheirank_converges_on_wikilink(spark, monkeypatch):
    """The default superstep cap lets CheiRank converge on the en
    wikilink graph at bench scale (a cap of 50 stopped it at an L1 delta
    near 2e-6, unconverged, and the task still ended DONE)."""
    g = wikilink(spark, "en", 2018, scale=2.0).graph
    pregel = pagerank_module.pregel
    results = []

    def kept(*args, **kwargs):
        results.append(pregel(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pagerank_module, "pregel", kept)
    cheirank(g)
    (res,) = results
    assert res.converged
    assert res.iterations > 50
