"""CycleRank: hand-checked small graphs, the DFS reference, pruning,
scoring functions, and Equation-1 invariants."""
import math

import pytest

from tests.graphs import (
    ACYCLIC_FROM_0,
    BOWTIE,
    COMPLETE4,
    CYCLE3,
    CYCLE4,
    random_digraph,
)
from repro.core.cyclerank import cycle_counts, cyclerank, prune_to_k_ball
from repro.core.scoring import SCORING_FUNCTIONS
from repro.graph.graph import DiGraph
from repro.reference import cyclerank_ref

RANDOM_C = random_digraph(10, 0.3, seed=11)
#: One cycle of each length 2, 3 and 5 through node 0, sharing only 0.
PETALS = [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
#: cycle length -> a node on the petal of that length
PETAL_NODE = {2: 1, 3: 2, 5: 4}


def _scores(df) -> dict[int, float]:
    return {r["id"]: r["score"] for r in df.to_dict("records")}


def _counts(pdf) -> dict[tuple[int, int], int]:
    return {(r.id, r.length): r.n_cycles for r in pdf.itertuples()}


@pytest.fixture(scope="module")
def bowtie_k3(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    return _scores(cyclerank(g, 0, k=3))


@pytest.fixture(scope="module")
def complete4_k4(spark):
    g = DiGraph.from_edges(spark, COMPLETE4)
    return _scores(cyclerank(g, 0, k=4))


@pytest.fixture(scope="module")
def random_c_k4(spark):
    g = DiGraph.from_edges(spark, RANDOM_C)
    return _scores(cyclerank(g, 2, k=4))


# -- hand-checked scores ------------------------------------------------


def test_cycle3_scores(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    got = _scores(cyclerank(g, 0, k=3))
    w = math.exp(-3)
    assert got == pytest.approx({0: w, 1: w, 2: w})


def test_cycle4_below_k_no_cycles(spark):
    g = DiGraph.from_edges(spark, CYCLE4)
    got = _scores(cyclerank(g, 0, k=3))
    assert got == pytest.approx({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0})


def test_bowtie_hand_counted(bowtie_k3):
    """Cycles through 0 with K=3: (0,1), (0,2) at n=2; (0,1,2), (0,2,1),
    (0,2,3) at n=3."""
    e2, e3 = math.exp(-2), math.exp(-3)
    assert bowtie_k3[0] == pytest.approx(2 * e2 + 3 * e3)
    assert bowtie_k3[1] == pytest.approx(e2 + 2 * e3)
    assert bowtie_k3[2] == pytest.approx(e2 + 3 * e3)
    assert bowtie_k3[3] == pytest.approx(e3)
    assert bowtie_k3[4] == 0.0


def test_reference_node_maximal(bowtie_k3, complete4_k4, random_c_k4):
    assert max(bowtie_k3, key=bowtie_k3.get) == 0
    assert max(complete4_k4, key=complete4_k4.get) == 0
    assert random_c_k4[2] == max(random_c_k4.values())


def test_complete4_closed_form(complete4_k4):
    """K_4, ref 0: 3 2-cycles, 6 3-cycles, 6 4-cycles through 0; each
    non-ref node lies on 1 2-cycle, 4 3-cycles and 6 4-cycles."""
    e2, e3, e4 = math.exp(-2), math.exp(-3), math.exp(-4)
    assert complete4_k4[0] == pytest.approx(3 * e2 + 6 * e3 + 6 * e4)
    for v in (1, 2, 3):
        assert complete4_k4[v] == pytest.approx(e2 + 4 * e3 + 6 * e4)


def test_acyclic_all_zero(spark):
    g = DiGraph.from_edges(spark, ACYCLIC_FROM_0)
    got = _scores(cyclerank(g, 0, k=5))
    assert set(got.values()) == {0.0}


def test_all_vertices_present_in_output(spark, bowtie_k3):
    assert set(bowtie_k3) == {0, 1, 2, 3, 4}


def test_scores_carry_vertex_names(spark):
    g = DiGraph.from_edges(spark, BOWTIE, names={0: "zero"})
    out = cyclerank(g, 0, k=3)
    assert list(out.columns) == ["id", "name", "score"]
    assert {r["id"]: r["name"] for r in out.to_dict("records")} == {
        0: "zero", **{v: f"node_{v}" for v in range(1, 5)}}


# -- against the DFS reference -----------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_matches_reference_random(spark, k):
    g = DiGraph.from_edges(spark, RANDOM_C)
    got = _scores(cyclerank(g, 2, k=k))
    want = cyclerank_ref(RANDOM_C, 2, k)
    assert got == pytest.approx(want)


def test_matches_reference_other_ref(spark):
    g = DiGraph.from_edges(spark, RANDOM_C)
    got = _scores(cyclerank(g, 7, k=3))
    assert got == pytest.approx(cyclerank_ref(RANDOM_C, 7, 3))


# -- scoring functions --------------------------------------------------


@pytest.mark.parametrize("sigma,weight", [("lin", 1 / 3), ("quad", 1 / 9), ("const", 1.0)])
def test_sigma_variants_cycle3(spark, sigma, weight):
    g = DiGraph.from_edges(spark, CYCLE3)
    got = _scores(cyclerank(g, 0, k=3, sigma=sigma))
    assert got[1] == pytest.approx(weight)


@pytest.fixture(scope="module")
def petal_scores(spark):
    g = DiGraph.from_edges(spark, PETALS)
    return {
        name: _scores(cyclerank(g, 0, k=5, sigma=name)) for name in SCORING_FUNCTIONS
    }


@pytest.mark.parametrize("name", ["exp", "lin", "quad", "const"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_named_sigma_weights_cycle_length(petal_scores, name, n):
    want = SCORING_FUNCTIONS[name](n)
    assert petal_scores[name][PETAL_NODE[n]] == pytest.approx(want)


def test_sigma_callable_matches_reference(spark):
    g = DiGraph.from_edges(spark, RANDOM_C)
    sigma = lambda n: 1 / n  # noqa: E731
    got = _scores(cyclerank(g, 2, k=4, sigma=sigma))
    assert got == pytest.approx(cyclerank_ref(RANDOM_C, 2, 4, sigma=sigma))


def test_unknown_sigma_raises_before_spark(spark, count_jobs):
    g = DiGraph.from_edges(spark, RANDOM_C)

    def run():
        with pytest.raises(ValueError, match="unknown scoring function"):
            cyclerank(g, 2, k=3, sigma="bogus")

    assert count_jobs(run) == 0


@pytest.mark.parametrize("bad", [1.5, "1) OR (1=1"])
def test_non_integer_ref_raises_before_spark(spark, count_jobs, bad):
    """A ref that is not an integer is rejected by ``operator.index``
    before the edges are collected."""
    g = DiGraph.from_edges(spark, RANDOM_C)

    def run():
        with pytest.raises(TypeError):
            cyclerank(g, bad, k=3)
        with pytest.raises(TypeError):
            cycle_counts(g, bad, 3)

    assert count_jobs(run) == 0


def test_sigma_const_counts_cycles(spark):
    g = DiGraph.from_edges(spark, COMPLETE4)
    got = _scores(cyclerank(g, 0, k=4, sigma="const"))
    assert got[0] == pytest.approx(15.0)  # 3 + 6 + 6


# -- pruning ------------------------------------------------------------


def test_prune_preserves_scores(spark):
    """The ball around ref 5 leaves vertices out, and the scores still
    equal the DFS reference over the whole edge list."""
    g = DiGraph.from_edges(spark, RANDOM_C)
    _, ball, _ = prune_to_k_ball(g, 5, 3)
    assert ball < {v for e in RANDOM_C for v in e}
    got = _scores(cyclerank(g, 5, k=3))
    assert got == pytest.approx(cyclerank_ref(RANDOM_C, 5, 3))


def test_prune_ball_contains_all_cycle_nodes(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    _, ids, _ = prune_to_k_ball(g, 0, 3)
    # nodes 0,1,2,3 are on cycles through 0 (len <= 3); 4 is not
    assert {0, 1, 2, 3} <= ids
    assert 4 not in ids


def test_prune_far_tail_cut(spark):
    """A long tail hanging off a 2-cycle is outside the 1-ball."""
    g = DiGraph.from_edges(spark, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)])
    _, ids, edges = prune_to_k_ball(g, 0, 2)
    assert ids == {0, 1}
    assert set(zip(edges["src"], edges["dst"])) == {(0, 1), (1, 0)}


def test_prune_ball_keeps_a_vertex_without_induced_edge(spark):
    """At K=2 the ball around 0 on a 3-cycle is 0 alone (1 is one hop
    forward, 2 one hop back): an id with no induced edge."""
    _, ids, edges = prune_to_k_ball(DiGraph.from_edges(spark, CYCLE3), 0, 2)
    assert ids == {0}
    assert edges.empty


# -- cycle_counts -------------------------------------------------------


def test_cycle_counts_bowtie(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    _, counts = cycle_counts(g, 0, 3)
    got = _counts(counts)
    assert got == {
        (0, 2): 2, (1, 2): 1, (2, 2): 1,
        (0, 3): 3, (1, 3): 2, (2, 3): 3, (3, 3): 1,
    }


def test_cycle_counts_exclude_longer(spark):
    g = DiGraph.from_edges(spark, COMPLETE4)
    _, counts = cycle_counts(g, 0, 2)
    got = _counts(counts)
    assert got == {(0, 2): 3, (1, 2): 1, (2, 2): 1, (3, 2): 1}


def test_self_loops_ignored(spark):
    g = DiGraph.from_edges(spark, [(0, 0), (0, 1), (1, 0)])
    got = _scores(cyclerank(g, 0, k=3))
    assert got[0] == pytest.approx(math.exp(-2))
    assert got[1] == pytest.approx(math.exp(-2))


# -- argument validation ------------------------------------------------


def test_k_too_small_raises(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(ValueError, match="k must be >= 2"):
        cyclerank(g, 0, k=1)


def test_missing_ref_raises(spark):
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(KeyError, match="reference node"):
        cyclerank(g, 42, k=3)


def test_ref_outside_long_range_raises_key_error(spark):
    """An integer ref that no long id can equal is unknown, like any other
    (not a JVM error from comparing it with the id column)."""
    g = DiGraph.from_edges(spark, CYCLE3)
    with pytest.raises(KeyError, match="reference node"):
        cyclerank(g, 2**70, k=3)


def test_spark_jobs_bounded(spark, count_jobs):
    g = DiGraph.from_edges(spark, RANDOM_C)
    assert count_jobs(lambda: cyclerank(g, 2, k=5)) <= 50
