"""Tests for the driver-side pregel engine and bounded BFS."""
import numpy as np
import pandas as pd
import pytest

from tests.graphs import BOWTIE, CYCLE4, DANGLING_CHAIN, DISCONNECTED
from repro.pregel.engine import iterate_frontier, pregel


def _vertices(ids):
    ids = list(ids)
    return pd.DataFrame({"id": ids, "name": [f"v{i}" for i in ids]}).astype({"id": "int64"})


def _edges(edges):
    return pd.DataFrame(edges, columns=["src", "dst"], dtype="int64")


def _values(res):
    return dict(zip(res.state["id"], res.state["value_0"]))


def _rotate(init: dict[int, float]):
    """A program that starts from ``init`` and in which every vertex sends
    its value along each out-edge and becomes the sum of its messages (0
    where none)."""

    def program(ids, seed, out_degree):
        return np.array([init[i] for i in ids]), (lambda x: x), (lambda x, msg: msg)

    return program


def _run(init, edges, **kw):
    return pregel(_vertices(init), _edges(edges), _rotate(init), **kw)


def test_one_superstep_rotates_cycle():
    """On a 4-cycle, 'send my value' + 'become the message' is a rotation."""
    res = _run({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, CYCLE4, max_iter=1)
    got = _values(res)
    assert got == {0: 4.0, 1: 1.0, 2: 2.0, 3: 3.0}
    assert res.iterations == 1


def test_state_carries_vertex_names():
    """Each vertex's name comes back with its value; an edge endpoint
    without a vertex row adds no row."""
    res = _run({0: 1.0, 1: 2.0}, [(0, 1), (1, 0), (1, 9)], max_iter=1)
    assert dict(zip(res.state["id"], res.state["name"])) == {0: "v0", 1: "v1"}


def test_four_supersteps_full_rotation():
    init = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    res = _run(init, CYCLE4, max_iter=4, tol=0.0)
    got = _values(res)
    assert got == init


def test_convergence_stops_early():
    """A fixpoint state converges on the first delta check."""
    res = _run({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, CYCLE4, max_iter=50, tol=1e-12)
    assert res.converged
    assert res.iterations == 1
    assert res.delta == pytest.approx(0.0)


def test_max_iter_reached_reports_not_converged():
    res = _run({0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}, CYCLE4, max_iter=3, tol=0.0)
    assert not res.converged
    assert res.iterations == 3


def test_vertex_without_messages_keeps_update_semantics():
    """Node 0 in the dangling chain receives no messages → its sum is 0."""
    res = _run({0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0}, DANGLING_CHAIN, max_iter=1)
    got = _values(res)
    assert got[0] == 0.0
    assert got[1] == 5.0


def test_aggregator_seen_by_next_superstep():
    """A sum over the state of superstep S (the initial state for S=0) is
    what the vertex program sees in superstep S+1: every vertex becomes
    the total, 10 after one superstep and 40 after two."""

    def program(ids, seed, out_degree):
        def become_total(x, msg):
            return np.full_like(x, x.sum())

        return ids + 1.0, (lambda x: x), become_total

    def run(max_iter):
        return pregel(_vertices(range(4)), _edges(CYCLE4), program,
                      max_iter=max_iter, tol=0.0)

    seen = [_values(run(1))[0]]
    res = run(2)
    got = _values(res)
    seen.append(got[0])
    assert seen == [10.0, 40.0]
    assert got == {0: 40.0, 1: 40.0, 2: 40.0, 3: 40.0}


def test_messages_to_unknown_ids_dropped():
    """Edges into an id without a vertex row carry messages nowhere: the
    id does not appear in the next state."""
    res = _run({0: 1.0, 1: 2.0}, [(0, 1), (1, 0), (1, 9)], max_iter=1)
    got = _values(res)
    assert got == {0: 2.0, 1: 1.0}


def test_delta_exact_after_one_superstep():
    """Rotating 1, 2, 3, 4 on CYCLE4 changes the values by 3+1+1+1."""
    res = _run({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, CYCLE4, max_iter=1)
    assert res.delta == 6.0
    assert not res.converged


def test_whole_run_starts_no_spark_job(count_jobs):
    """Every superstep runs on the driver over the pandas frames: 1 and
    30 supersteps start no Spark job (one, the collect of the graph,
    when the engine read Spark frames)."""
    init = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    for max_iter in (1, 30):
        res = []
        assert count_jobs(lambda: res.append(_run(init, CYCLE4, max_iter=max_iter,
                                                    tol=0.0))) == 0
        assert res[0].iterations == max_iter
        assert res[0].num_vertices == 4


def test_lanes_follow_their_direction_and_seeds():
    """A transposed lane rotates the other way; each lane's seed mask is
    its own and its unknown seeds are counted."""

    def program(ids, seed, out_degree):
        return np.where(seed, ids + 1.0, 0.0), (lambda x: x), (lambda x, msg: msg)

    res = pregel(_vertices(range(4)), _edges(CYCLE4), program,
                 lanes=[(None, False), ([0, 9], True)], max_iter=1)
    state = res.state
    rows = {i: (a, b) for i, a, b in zip(state["id"], state["value_0"], state["value_1"])}
    assert rows == {0: (4.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), 3: (3.0, 1.0)}
    assert [lane.missing for lane in res.lanes] == [0, 1]


@pytest.mark.parametrize(
    "kw", [{"max_iter": 0}, {"max_iter": -1}, {"tol": -1e-9}, {"max_iter": 2.5}]
)
def test_bad_iteration_parameters_raise_before_spark(count_jobs, kw):
    """A bad value raises before any job; a non-integer ``max_iter`` is a
    ``TypeError``, not a failure inside the superstep loop."""
    vertices, edges = _vertices([0]), _edges([(0, 0)])
    error = ValueError if isinstance(kw.get("max_iter", 1), int) else TypeError

    def run():
        with pytest.raises(error, match=next(iter(kw))):
            pregel(vertices, edges, _rotate({0: 1.0}), **kw)

    assert count_jobs(run) == 0


# -- iterate_frontier ---------------------------------------------------


CHAIN = _edges([(0, 1), (1, 2), (2, 3), (3, 4)])


def test_frontier_depth_zero_is_seed():
    fwd, bwd = iterate_frontier([2], CHAIN, max_depth=0)
    assert fwd == bwd == {2}


@pytest.mark.parametrize("depth,expected", [(1, {0, 1}), (2, {0, 1, 2}), (9, {0, 1, 2, 3, 4})])
def test_frontier_out_depths(depth, expected):
    fwd, bwd = iterate_frontier([0], CHAIN, max_depth=depth)
    assert fwd == ({0} | expected)
    assert bwd == {0}


def test_frontier_in_direction():
    fwd, bwd = iterate_frontier([4], CHAIN, max_depth=2)
    assert bwd == {2, 3, 4}
    assert fwd == {4}


def test_frontier_stops_at_component():
    fwd, bwd = iterate_frontier([0], _edges(DISCONNECTED), max_depth=10)
    assert fwd == bwd == {0, 1}


def test_frontier_starts_no_spark_job(count_jobs):
    """The BFS walks edge arrays on the driver: no level is a Spark job
    (one job per level when each level scanned the edge frame)."""
    for depth in (3, 9):
        assert count_jobs(lambda: iterate_frontier([0], CHAIN, max_depth=depth)) == 0
