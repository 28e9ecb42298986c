"""The demo-platform substrate: tasks, datastore, executor, scheduler,
status, gateway (Figure 1 / Section III request cycle)."""
import pandas as pd
import pytest

from tests.graphs import BOWTIE
from repro.graph.graph import DiGraph
from repro.platform.datastore import Datastore
from repro.platform.executor import ALGORITHMS, Executor
from repro.platform.gateway import ApiGateway
from repro.platform.scheduler import Scheduler, TaskState
from repro.platform.status import Status
from repro.platform.tasks import Task, TaskBuilder, task_id


# -- tasks --------------------------------------------------------------


def test_task_make_canonical_order():
    a = Task.make("d", "pagerank", alpha=0.85, max_iter=10)
    b = Task.make("d", "pagerank", max_iter=10, alpha=0.85)
    assert a == b
    assert task_id(a) == task_id(b)


def test_task_id_distinguishes_params():
    a = Task.make("d", "pagerank", alpha=0.85)
    b = Task.make("d", "pagerank", alpha=0.3)
    assert task_id(a) != task_id(b)


def test_task_id_stable_permalink():
    t = Task.make("wikilink-en-2018", "cyclerank", refs=5, k=3)
    assert task_id(t) == task_id(Task.from_json(t.to_json()))


def test_task_json_roundtrip():
    t = Task.make("amazon", "personalized_pagerank", refs=7, alpha=0.85)
    assert Task.from_json(t.to_json()) == t


def test_task_builder_add_remove_clear():
    tb = TaskBuilder()
    tb.add("d1", "pagerank")
    t2 = tb.add("d2", "cheirank")
    tb.add("d3", "cyclerank", refs=1)
    assert len(tb.build()) == 3
    assert tb.remove(1) == t2
    assert [t.dataset for t in tb.build()] == ["d1", "d3"]
    tb.clear()
    assert tb.build() == []


def test_task_builder_build_is_snapshot():
    tb = TaskBuilder()
    tb.add("d", "pagerank")
    snap = tb.build()
    tb.clear()
    assert len(snap) == 1


# -- datastore ----------------------------------------------------------


@pytest.fixture()
def store(tmp_path):
    return Datastore(str(tmp_path / "store"))


def test_datastore_dataset_roundtrip(spark, store):
    g = DiGraph.from_edges(spark, BOWTIE, names={0: "zero"})
    store.save_dataset("bowtie", g)
    assert store.has_dataset("bowtie")
    g2 = store.load_dataset(spark, "bowtie")
    assert g2.num_edges() == len(BOWTIE)
    assert g2.id_of("zero") == 0


def test_datastore_missing_dataset_raises(spark, store):
    with pytest.raises(FileNotFoundError):
        store.load_dataset(spark, "ghost")


def test_datastore_list(spark, store):
    g = DiGraph.from_edges(spark, BOWTIE)
    store.save_dataset("b", g)
    store.save_dataset("a", g)
    assert store.list_stored_datasets() == ["a", "b"]


def test_datastore_result_roundtrip(store):
    df = pd.DataFrame({"id": [1, 2], "score": [0.5, 0.25]})
    store.save_result("abc", df)
    assert store.has_result("abc")
    assert store.load_result("abc").equals(df)


def test_datastore_missing_result_raises(store):
    with pytest.raises(FileNotFoundError):
        store.load_result("ghost")


def test_datastore_logs_append_and_read(store):
    store.append_log("t1", "submitted", task="{}")
    store.append_log("t1", "done", seconds=1.5)
    logs = store.read_logs("t1")
    assert [e["event"] for e in logs] == ["submitted", "done"]
    assert store.read_logs("other") == []


# -- executor -----------------------------------------------------------


def test_seven_algorithms_registered():
    assert len(ALGORITHMS) == 7
    assert set(ALGORITHMS) == {
        "pagerank", "cheirank", "2drank",
        "personalized_pagerank", "personalized_cheirank",
        "personalized_2drank", "cyclerank",
    }


def test_executor_unknown_algorithm_raises(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    with pytest.raises(KeyError, match="unknown algorithm"):
        Executor().run(g, "quantumrank")


@pytest.fixture(scope="module")
def exec_results(spark):
    """Run all seven algorithms once on the bowtie graph."""
    g = DiGraph.from_edges(spark, BOWTIE)
    ex = Executor()
    out = {}
    for name in ex.algorithms():
        kw = {"max_iter": 25}
        if name in {"personalized_pagerank", "personalized_cheirank",
                    "personalized_2drank"}:
            kw["refs"] = 0
        elif name == "cyclerank":
            kw = {"refs": 0, "k": 3}
        out[name] = {r["id"]: r["score"] for r in ex.run(g, name, **kw).collect()}
    return out


@pytest.mark.parametrize(
    "name",
    ["pagerank", "cheirank", "2drank", "personalized_pagerank",
     "personalized_cheirank", "personalized_2drank", "cyclerank"],
)
def test_every_algorithm_scores_all_vertices(exec_results, name):
    assert set(exec_results[name]) == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("name", ["2drank", "personalized_2drank"])
def test_rank_algorithms_expose_pseudo_scores(exec_results, name):
    """Ranks surface as -rank so best rank sorts first."""
    scores = exec_results[name]
    assert sorted(scores.values(), reverse=True) == [-1, -2, -3, -4, -5]


def test_executor_register_custom(spark):
    g = DiGraph.from_edges(spark, BOWTIE)
    ex = Executor()
    ex.register("indegree", lambda gr: gr.in_degrees().withColumnRenamed(
        "in_degree", "score"))
    got = {r["id"]: r["score"] for r in ex.run(g, "indegree").collect()}
    assert got[0] == 3  # 1->0, 2->0, 3->0
    assert "indegree" in ex.algorithms()


# -- scheduler / status / gateway --------------------------------------


@pytest.fixture(scope="module")
def gateway(spark, tmp_path_factory):
    return ApiGateway(
        spark, str(tmp_path_factory.mktemp("gw")), top_k_size=10, dataset_scale=0.1
    )


def test_gateway_lists_datasets_and_algorithms(gateway):
    assert "wikilink-en-2018" in gateway.datasets()
    assert len(gateway.algorithms()) == 7


def test_full_request_cycle_pagerank(gateway):
    """Section III steps 1-5: build task, schedule, execute, store,
    retrieve by permalink."""
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-cop27", "pagerank", alpha=0.85, max_iter=20)]
    )
    poll = gateway.poll(tid)
    assert poll["state"] == "done"
    assert poll["has_result"]
    result = gateway.result(tid)
    assert list(result.columns) == ["id", "score", "rank", "name"]
    assert len(result) == 10
    assert result["rank"].tolist() == list(range(1, 11))


def test_gateway_result_is_permalink_stable(gateway):
    t = Task.make("twitter-cop27", "pagerank", alpha=0.85, max_iter=20)
    (tid1,) = gateway.submit_query_set([t])
    (tid2,) = gateway.submit_query_set([t])
    assert tid1 == tid2


def test_failed_task_reports_error(gateway):
    (tid,) = gateway.submit_query_set([Task.make("twitter-cop27", "cyclerank")])
    poll = gateway.poll(tid)
    assert poll["state"] == "failed"
    assert "refs" in poll["error"]


def test_cyclerank_with_two_refs_fails_cleanly(gateway):
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-cop27", "cyclerank", refs=[0, 1], k=3)]
    )
    poll = gateway.poll(tid)
    assert poll["state"] == "failed"
    assert "exactly one" in poll["error"]


def test_unknown_dataset_fails_cleanly(gateway):
    (tid,) = gateway.submit_query_set([Task.make("ghost", "pagerank")])
    assert gateway.poll(tid)["state"] == "failed"


def test_unknown_task_polls_unknown(gateway):
    assert gateway.poll("deadbeef")["state"] == "unknown"


def test_logs_record_lifecycle(gateway):
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-8m", "cheirank", max_iter=15)]
    )
    events = [e["event"] for e in gateway.status.logs(tid)]
    assert events[0] == "submitted"
    assert events[-1] == "done"


def test_scheduler_states(spark, tmp_path):
    store = Datastore(str(tmp_path / "s"))
    sched = Scheduler(spark, store, dataset_scale=0.1, top_k_size=5)
    t = Task.make("twitter-8m", "pagerank", max_iter=10)
    tid = sched.submit(t)
    assert sched.state(tid) is TaskState.PENDING
    assert sched.run(tid) is TaskState.DONE
    status = Status(sched, store)
    assert status.poll(tid)["state"] == "done"
    assert len(status.result(tid)) == 5


def test_scheduler_caches_generated_dataset(spark, tmp_path):
    store = Datastore(str(tmp_path / "c"))
    sched = Scheduler(spark, store, dataset_scale=0.1)
    sched.submit_and_run(Task.make("twitter-cop27", "pagerank", max_iter=5))
    assert store.has_dataset("twitter-cop27")
    # second run hits the datastore copy (no regeneration)
    tid = sched.submit_and_run(
        Task.make("twitter-cop27", "cheirank", max_iter=5)
    )
    assert sched.state(tid) is TaskState.DONE
