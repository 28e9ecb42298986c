"""The demo-platform substrate: tasks, datastore, executor, scheduler,
status, gateway (Figure 1 / Section III request cycle)."""
import os
import shutil
import time
from decimal import Decimal

import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.graphs import BOWTIE
from repro.datasets import registry
from repro.datasets.wikilink import wikilink
from repro.experiments.tables import table3, table3_column
from repro.graph.formats import read_graph
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


def _frames(g):
    return g.vertex_frame, g.edge_frame


def test_datastore_dataset_roundtrip(spark, store):
    g = DiGraph.from_edges(spark, BOWTIE, names={0: "zero"})
    store.save_dataset("bowtie", g)
    assert store.has_dataset("bowtie")
    g2 = store.load_dataset(spark, "bowtie")
    assert g2.vertices.dtypes == [("id", "bigint"), ("name", "string")]
    assert g2.edges.dtypes == [("src", "bigint"), ("dst", "bigint")]
    assert g2.num_edges() == len(BOWTIE)
    v, e = _frames(g2)
    for loaded, saved in zip((v, e), _frames(g)):
        pd.testing.assert_frame_equal(loaded, saved)
    assert v.loc[v["name"] == "zero", "id"].tolist() == [0]
    assert set(zip(e["src"], e["dst"])) == set(BOWTIE)
    stored = pd.read_parquet(os.path.join(store.root, "datasets", "bowtie", "edges"))
    assert set(zip(stored["src"], stored["dst"])) == set(BOWTIE)


def test_resaving_a_loaded_dataset_keeps_it(spark, store):
    """Storing a graph loaded from the same name writes the frames it
    holds in memory (when Spark's overwrite deleted the files its lazy
    source was reading, the store failed and left ``vertices/`` empty)."""
    store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE, names={0: "zero"}))
    before = _frames(store.load_dataset(spark, "b"))
    store.save_dataset("b", store.load_dataset(spark, "b"))
    after = _frames(store.load_dataset(spark, "b"))
    for got, want in zip(after, before):
        pd.testing.assert_frame_equal(got, want)


def test_loaded_graph_outlives_an_overwrite(spark, store):
    """A graph loaded before its name is stored again with another graph
    still reads its own edges: loading copies the files into memory (a
    lazy Spark read failed on the deleted files)."""
    store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE))
    old = store.load_dataset(spark, "b")
    store.save_dataset("b", DiGraph.from_edges(spark, [(7, 8)]))
    v, e = _frames(old)
    assert set(zip(e["src"], e["dst"])) == set(BOWTIE)
    assert v["id"].tolist() == [0, 1, 2, 3, 4]
    _, new = _frames(store.load_dataset(spark, "b"))
    assert list(zip(new["src"], new["dst"])) == [(7, 8)]


def test_datastore_load_starts_no_spark_job(spark, store, count_jobs):
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    assert count_jobs(lambda: store.load_dataset(spark, "bowtie")) == 0


def test_stored_dataset_vertex_count_starts_no_spark_job(spark, store, count_jobs):
    """A stored dataset loads into pandas frames, so counting its
    vertices is their length: no job (one when the count ran on a Spark
    frame, two when each parquet file was its own partition)."""
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    g = store.load_dataset(spark, "bowtie")
    assert count_jobs(g.num_vertices) == 0


def test_generated_dataset_save_spark_jobs(spark, store, count_jobs):
    """Storing a generated graph starts no job: pandas writes the two
    frames the graph holds (1 job when the graph was read back from
    Spark first, 2 when Spark wrote each frame)."""
    g = wikilink(spark, "en", 2018, scale=0.2).graph
    assert count_jobs(lambda: store.save_dataset("wikilink-en-2018", g)) == 0


def test_upload_read_and_save_spark_jobs(spark, store, count_jobs, tmp_path):
    """An upload is parsed and stored on the driver with no job (1 when
    the graph was read back from Spark first, 2 when Spark wrote each
    frame)."""
    p = tmp_path / "bowtie.csv"
    p.write_text("".join(f"{s},{d}\n" for s, d in BOWTIE))
    jobs = count_jobs(lambda: store.save_dataset("bowtie", read_graph(spark, str(p))))
    assert jobs == 0
    assert store.load_dataset(spark, "bowtie").num_edges() == len(BOWTIE)


def test_datastore_missing_dataset_raises(spark, store):
    with pytest.raises(FileNotFoundError):
        store.load_dataset(spark, "ghost")


def test_datastore_save_outside_datasets_raises(spark, store):
    with pytest.raises(ValueError, match="dataset name"):
        store.save_dataset("../x", DiGraph.from_edges(spark, BOWTIE))
    assert sorted(os.listdir(store.root)) == ["datasets", "logs", "results"]
    assert os.listdir(os.path.join(store.root, "datasets")) == []


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


# -- a stored dataset is read from disk once per process ----------------


def _refuse_parquet_reads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parquet file read")

    monkeypatch.setattr(pd, "read_parquet", refuse)


def _stored_frames(store, name):
    """The dataset's two frames as its parquet files hold them."""
    d = os.path.join(store.root, "datasets", name)
    return tuple(pd.read_parquet(os.path.join(d, sub)) for sub in ("vertices", "edges"))


def test_second_task_reads_no_parquet_file(spark, tmp_path, monkeypatch):
    """Once a dataset is stored or loaded, a task on it reads no parquet
    file, and its result equals that of a run which read the dataset
    from disk (a copy of it under another root)."""
    store = Datastore(str(tmp_path / "warm"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE, names={0: "zero"}))
    cold = Datastore(str(tmp_path / "cold"))
    shutil.copytree(os.path.join(store.root, "datasets", "bowtie"),
                    os.path.join(cold.root, "datasets", "bowtie"))
    task = Task.make("bowtie", "personalized_pagerank", refs=[0])
    tids = [Scheduler(spark, cold, top_k_size=3).submit_and_run(task)]
    sched = Scheduler(spark, store, top_k_size=3)
    sched.submit_and_run(Task.make("bowtie", "pagerank"))
    with monkeypatch.context() as m:
        _refuse_parquet_reads(m)
        tids.append(sched.submit_and_run(task))
    assert [Status(s).poll(tid)["state"] for s, tid in zip((cold, store), tids)] == ["done"] * 2
    pd.testing.assert_frame_equal(store.load_result(tids[1]), cold.load_result(tids[0]))


def _store_through_a_second_datastore(spark, store):
    Datastore(store.root).save_dataset("b", DiGraph.from_edges(spark, [(7, 8)]))


def _replace_the_files(spark, store):
    """What another process storing the dataset leaves on disk."""
    other = Datastore(store.root + "-other")
    other.save_dataset("b", DiGraph.from_edges(spark, [(7, 8)]))
    d = os.path.join(store.root, "datasets", "b")
    shutil.rmtree(d)
    shutil.copytree(os.path.join(other.root, "datasets", "b"), d)


@pytest.mark.parametrize("restore", [_store_through_a_second_datastore, _replace_the_files],
                         ids=["second-datastore", "files-replaced"])
def test_load_after_a_restore_returns_the_new_graph(spark, store, restore):
    """A dataset stored again under its name by another datastore over
    the same root, or replaced on disk, is what the next load returns:
    the version file, not the graph in memory, decides."""
    store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE))
    assert store.load_dataset(spark, "b").num_edges() == len(BOWTIE)
    restore(spark, store)
    v, e = _frames(store.load_dataset(spark, "b"))
    assert list(zip(e["src"], e["dst"])) == [(7, 8)]
    assert v["id"].tolist() == [7, 8]


def test_dataset_without_version_is_read_each_time(spark, store, monkeypatch):
    """A dataset stored without a version file is read from its parquet
    files on every load, and no load is served from memory after it."""
    store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE))
    os.remove(os.path.join(store.root, "datasets", "b", "version"))
    read = pd.read_parquet
    reads = []
    monkeypatch.setattr(pd, "read_parquet", lambda path, **kw: reads.append(path) or read(path, **kw))
    for _ in range(3):
        assert store.load_dataset(spark, "b").num_edges() == len(BOWTIE)
    assert len(reads) == 6


def _bowtie(spark, tmp_path):
    return DiGraph.from_edges(spark, BOWTIE, names={0: "zero"})


def _upload(spark, tmp_path):
    p = tmp_path / "up.net"
    p.write_text('*Vertices 5\n1 "one"\n3 three\n*Arcs\n1 2 0.5\n2 3\n3 1\n4 5\n')
    return read_graph(spark, str(p))


def _registry(spark, tmp_path):
    return registry.load_dataset(spark, "twitter-cop27", scale=0.1).graph


@pytest.mark.parametrize("make", [_bowtie, _upload, _registry], ids=["bowtie", "upload", "registry"])
def test_graph_served_from_memory_equals_its_parquet_files(spark, store, tmp_path, monkeypatch, make):
    """The frames a store keeps in memory, which every later load serves,
    equal those its parquet files read back as: dtypes and index too."""
    store.save_dataset("g", make(spark, tmp_path))
    on_disk = _stored_frames(store, "g")
    with monkeypatch.context() as m:
        _refuse_parquet_reads(m)
        served = _frames(store.load_dataset(spark, "g"))
    for got, want in zip(served, on_disk):
        pd.testing.assert_frame_equal(got, want)


def test_algorithms_leave_the_graph_in_memory_unchanged(spark, tmp_path, monkeypatch):
    """A query set of all seven algorithms on a stored dataset leaves the
    frames that loads serve from memory as they were stored."""
    gw = ApiGateway(spark, str(tmp_path / "seven"), top_k_size=3)
    gw.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE, names={0: "zero"}))
    tids = gw.submit_query_set([Task.make("bowtie", a, **p) for a, p in TASK_PARAMS.items()])
    assert [gw.poll(tid)["state"] for tid in tids] == ["done"] * len(ALGORITHMS)
    on_disk = _stored_frames(gw.datastore, "bowtie")
    with monkeypatch.context() as m:
        _refuse_parquet_reads(m)
        served = _frames(gw.datastore.load_dataset(spark, "bowtie"))
    for got, want in zip(served, on_disk):
        pd.testing.assert_frame_equal(got, want)


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
        out[name] = {r["id"]: r["score"] for r in ex.run(g, name, **kw).to_dict("records")}
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
    ex.register("indegree", lambda gr: gr.edges.groupBy(F.col("dst").alias("id")).agg(
        F.count("*").alias("score")).join(gr.vertices, "id").select("id", "name", "score")
        .toPandas())
    out = ex.run(g, "indegree")
    assert list(out.columns) == ["id", "name", "score"]
    got = {r["id"]: r["score"] for r in out.to_dict("records")}
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


def test_cyclerank_with_k_below_two_fails_cleanly(gateway):
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-cop27", "cyclerank", refs=[0], k=1)]
    )
    poll = gateway.poll(tid)
    assert poll["state"] == "failed"
    assert "k must be >= 2" in poll["error"]


def test_cyclerank_with_unknown_ref_fails_cleanly(gateway):
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-cop27", "cyclerank", refs=[10**12], k=3)]
    )
    poll = gateway.poll(tid)
    assert poll["state"] == "failed"
    assert "reference node" in poll["error"]


def test_pagerank_without_supersteps_fails_cleanly(gateway):
    (tid,) = gateway.submit_query_set(
        [Task.make("twitter-cop27", "pagerank", max_iter=0)]
    )
    poll = gateway.poll(tid)
    assert poll["state"] == "failed"
    assert "max_iter" in poll["error"]


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
    status = Status(store)
    assert status.poll(tid)["state"] == "pending"
    assert sched.run(tid) is TaskState.DONE
    assert status.poll(tid)["state"] == "done"
    assert len(status.result(tid)) == 5


#: Parameters of one task per registered algorithm.
TASK_PARAMS = {
    **{name: {} for name in ("pagerank", "cheirank", "2drank")},
    **{name: {"refs": [0]} for name in (
        "personalized_pagerank", "personalized_cheirank", "personalized_2drank")},
    "cyclerank": {"refs": [0], "k": 3},
}


@pytest.mark.parametrize(
    "algorithm, params",
    [*TASK_PARAMS.items(), ("cyclerank", {"refs": [0], "k": 5})],
    ids=[*TASK_PARAMS, "cyclerank-k5"],
)
def test_every_task_starts_no_spark_job(spark, tmp_path, count_jobs, algorithm, params):
    """Every algorithm's task on a stored dataset starts no Spark job:
    the loaded graph's pandas frames, the scores and the top-k sort all
    stay on the driver (1 job when the algorithm read the graph back
    from Spark, 2 when the scores went back to Spark for a sorted
    ``limit``, 3 for a power iteration and 5 to 7 for CycleRank before
    that)."""
    assert set(TASK_PARAMS) == set(ALGORITHMS)
    store = Datastore(str(tmp_path / "two"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE, names={0: "zero"}))
    sched = Scheduler(spark, store, top_k_size=3)
    tid = sched.submit(Task.make("bowtie", algorithm, **params))
    assert count_jobs(lambda: sched.run(tid)) == 0
    result = Status(store).result(tid)
    assert len(result) == 3
    names = {0: "zero", **{v: f"node_{v}" for v in range(1, 5)}}
    assert list(result["name"]) == [names[v] for v in result["id"]]


def test_platform_never_hands_the_graph_to_spark(spark, tmp_path, monkeypatch):
    """With ``createDataFrame`` refused, a store, a load and a query set
    of all seven algorithms still end DONE: the graph is never handed to
    Spark (every graph reached Spark as two parallelized frames)."""

    def refuse(*args, **kwargs):
        raise AssertionError("createDataFrame called")

    monkeypatch.setattr(spark, "createDataFrame", refuse)
    gw = ApiGateway(spark, str(tmp_path / "driver"), top_k_size=3)
    gw.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    assert gw.datastore.load_dataset(spark, "bowtie").num_edges() == len(BOWTIE)
    tids = gw.submit_query_set([Task.make("bowtie", a, **p) for a, p in TASK_PARAMS.items()])
    assert [gw.poll(tid)["state"] for tid in tids] == ["done"] * len(ALGORITHMS)


@pytest.mark.parametrize(
    "algorithm, params, error",
    [
        ("pagerank", {"tol": float("nan")}, "ValueError: tol must be a finite real"),
        ("pagerank", {"tol": float("inf")}, "ValueError: tol must be a finite real"),
        ("pagerank", {"alpha": True}, "TypeError: alpha must be a real number, got True"),
        ("pagerank", {"max_iter": True}, "TypeError: max_iter must be an integer, got True"),
        ("personalized_pagerank", {"refs": [True]}, "TypeError: ref must be an integer, got True"),
        ("cyclerank", {"refs": [True], "k": 3}, "TypeError: ref must be an integer, got True"),
        ("cyclerank", {"refs": [0], "k": True}, "TypeError: k must be an integer, got True"),
    ],
    ids=["tol-nan", "tol-inf", "alpha-bool", "max-iter-bool", "ppr-ref-bool",
         "cyclerank-ref-bool", "k-bool"],
)
def test_bad_parameter_fails_naming_it(spark, tmp_path, count_jobs, algorithm, params, error):
    """A NaN or infinite ``tol`` and a ``bool`` where an int or a real is
    expected end the task FAILED with a message naming the parameter,
    with no Spark job and no result (a NaN ``tol`` ran every lane to the
    cap, and ``True`` ran as 1)."""
    gw = ApiGateway(spark, str(tmp_path / "probe"), top_k_size=3)
    gw.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    tids = []
    task = Task.make("bowtie", algorithm, **params)
    assert count_jobs(lambda: tids.extend(gw.submit_query_set([task]))) == 0
    poll = gw.poll(tids[0])
    assert poll["state"] == "failed"
    assert poll["error"].startswith(error)
    assert not poll["has_result"]


def test_task_make_rejects_a_value_json_cannot_encode():
    """A parameter JSON cannot encode raises ``ValueError`` naming it (a
    ``TypeError`` escaped ``submit_query_set`` from the permalink hash)."""
    with pytest.raises(ValueError, match="parameter 'alpha' cannot be JSON-encoded"):
        Task.make("bowtie", "pagerank", alpha=Decimal("0.5"))


@pytest.mark.parametrize("bad", [1.5, "1) OR (1=1"])
def test_cyclerank_non_integer_ref_fails_cleanly(spark, tmp_path, count_jobs, bad):
    """A ref that is not an integer ends the task FAILED with the
    TypeError, before any Spark job, and no result is stored."""
    gw = ApiGateway(spark, str(tmp_path / "bad-ref"), top_k_size=3)
    gw.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    tids = []
    task = Task.make("bowtie", "cyclerank", refs=[bad], k=3)
    assert count_jobs(lambda: tids.extend(gw.submit_query_set([task]))) == 0
    poll = gw.poll(tids[0])
    assert poll["state"] == "failed"
    assert poll["error"].startswith("TypeError: ")
    assert not poll["has_result"]
    assert not gw.datastore.has_result(tids[0])


@pytest.mark.parametrize("k, shown", [(2.5, "2.5"), ("3", "'3'")], ids=["float", "str"])
def test_cyclerank_non_integer_k_fails_before_spark(spark, tmp_path, count_jobs, k, shown):
    """A CycleRank ``k`` that is not an integer ends the task FAILED with
    a TypeError naming it, before any Spark job, and no result is
    stored."""
    store = Datastore(str(tmp_path / "bad-k"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    sched = Scheduler(spark, store, top_k_size=3)
    tid = sched.submit(Task.make("bowtie", "cyclerank", refs=[0], k=k))
    assert count_jobs(lambda: sched.run(tid)) == 0
    poll = Status(store).poll(tid)
    assert poll["state"] == "failed"
    assert poll["error"] == f"TypeError: k must be an integer, got {shown}"
    assert not store.has_result(tid)


def test_non_integer_max_iter_fails_before_spark(spark, tmp_path, count_jobs):
    """A ``max_iter`` that is not an integer ends the task FAILED with the
    TypeError, before any Spark job, and no result is stored."""
    store = Datastore(str(tmp_path / "bad-max-iter"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    sched = Scheduler(spark, store, top_k_size=3)
    tid = sched.submit(Task.make("bowtie", "pagerank", max_iter=2.5))
    assert count_jobs(lambda: sched.run(tid)) == 0
    poll = Status(store).poll(tid)
    assert poll["state"] == "failed"
    assert poll["error"].startswith("TypeError: ")
    assert not store.has_result(tid)


def test_unknown_ref_fails_on_the_driver(spark, tmp_path):
    """An unknown reference is counted and raised on the driver: the
    FAILED message is the KeyError, not a Python-worker traceback."""
    gw = ApiGateway(spark, str(tmp_path / "unknown-ref"), top_k_size=3)
    gw.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    (tid,) = gw.submit_query_set(
        [Task.make("bowtie", "personalized_pagerank", refs=[0, 99])]
    )
    poll = gw.poll(tid)
    assert poll["state"] == "failed"
    assert poll["error"].startswith("KeyError: ")
    assert "1 reference id(s) not present in the graph" in poll["error"]
    assert "PythonException" not in poll["error"]
    assert "Traceback" not in poll["error"]


def test_scheduler_caches_generated_dataset(spark, tmp_path):
    store = Datastore(str(tmp_path / "c"))
    sched = Scheduler(spark, store, dataset_scale=0.1)
    sched.submit_and_run(Task.make("twitter-cop27", "pagerank", max_iter=5))
    assert store.has_dataset("twitter-cop27")
    # second run hits the datastore copy (no regeneration)
    tid = sched.submit_and_run(
        Task.make("twitter-cop27", "cheirank", max_iter=5)
    )
    assert Status(store).poll(tid)["state"] == "done"


def test_first_touch_task_computes_on_the_graph_it_stored(spark, tmp_path, monkeypatch):
    """A task on a dataset not yet stored generates and stores it, then
    loads it without reading a parquet file (the store keeps the frames
    in memory), and runs on a graph equal to what is stored."""
    store = Datastore(str(tmp_path / "first"))
    sched = Scheduler(spark, store, dataset_scale=0.1, top_k_size=3)
    seen = []
    sched.executor.register("seen", lambda g, **kw: seen.append(g) or ALGORITHMS["pagerank"](g, **kw))
    with monkeypatch.context() as m:
        _refuse_parquet_reads(m)
        tid = sched.submit_and_run(Task.make("twitter-cop27", "seen", max_iter=5))
    assert Status(store).poll(tid)["state"] == "done"
    for got, stored in zip(_frames(seen[0]), _stored_frames(store, "twitter-cop27")):
        pd.testing.assert_frame_equal(got, stored)


# -- re-submits are served from the stored result ----------------------


def _counting(calls: list, *, fail_first: bool = False):
    """PageRank that appends to ``calls`` each time it runs (and raises
    the first time, with ``fail_first``)."""

    def counted_pagerank(g, **kw):
        calls.append(kw)
        if fail_first and len(calls) == 1:
            raise RuntimeError("first attempt fails")
        return ALGORITHMS["pagerank"](g, **kw)

    return counted_pagerank


def _reuse_store(spark, tmp_path, fn):
    """A scheduler over a store holding BOWTIE, with ``fn`` registered as
    ``counted``."""
    store = Datastore(str(tmp_path / "reuse"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    sched = Scheduler(spark, store, top_k_size=3)
    sched.executor.register("counted", fn)
    return store, sched


def test_datastore_version_names_the_stored_graph(spark, store):
    """The version is the sha256 of the two parquet files: the same
    frames stored again give the same one, another graph another one."""
    v = store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE))
    assert len(v) == 64 and store.dataset_version("b") == v
    assert store.save_dataset("b", store.load_dataset(spark, "b")) == v
    assert store.save_dataset("b", DiGraph.from_edges(spark, BOWTIE[:-1])) != v
    assert store.dataset_version("ghost") is None


def test_resubmitted_done_task_is_served_from_its_result(spark, tmp_path, count_jobs, monkeypatch):
    """A DONE task submitted again loads no dataset, runs no algorithm,
    starts no Spark job and leaves its result file as it was."""
    calls = []
    store, sched = _reuse_store(spark, tmp_path, _counting(calls))
    task = Task.make("bowtie", "counted", max_iter=20)
    tid = sched.submit_and_run(task)
    path = os.path.join(store.root, "results", f"{tid}.parquet")
    os.utime(path, ns=(10**9, 10**9))
    with open(path, "rb") as fh:
        before = fh.read()

    def refuse(*args):
        raise AssertionError("dataset loaded")

    monkeypatch.setattr(store, "load_dataset", refuse)
    assert count_jobs(lambda: sched.submit_and_run(task)) == 0
    assert calls == [{"max_iter": 20}]
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.stat(path).st_mtime_ns == 10**9
    done = store.read_logs(tid)[-1]
    assert done["event"] == "done" and done["reused"] is True
    assert done["version"] == store.dataset_version("bowtie")
    assert Status(store).poll(tid) == {"task_id": tid, "state": "done", "has_result": True}


def _restore_another_graph(spark, store, sched, calls):
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE[:-1]))


def _change_top_k_size(spark, store, sched, calls):
    sched.top_k_size = 4


def _replace_algorithm(spark, store, sched, calls):
    def other_pagerank(g, **kw):
        calls.append(kw)
        return ALGORITHMS["pagerank"](g, **kw)

    sched.executor.register("counted", other_pagerank)


def _drop_version_file(spark, store, sched, calls):
    os.remove(os.path.join(store.root, "datasets", "bowtie", "version"))


@pytest.mark.parametrize(
    "before, after, fail_first",
    [
        (None, _restore_another_graph, False),
        (None, _change_top_k_size, False),
        (None, _replace_algorithm, False),
        (None, None, True),
        (_drop_version_file, None, False),
    ],
    ids=["graph-restored", "top-k-size", "algorithm-replaced", "last-attempt-failed",
         "no-version-file"],
)
def test_resubmitted_task_is_computed_again(spark, tmp_path, before, after, fail_first):
    """A re-submit is computed again unless its last attempt ended DONE
    on the same dataset version, ``top_k_size`` and algorithm; the new
    ``done`` records the values it ran with."""
    calls = []
    store, sched = _reuse_store(spark, tmp_path, _counting(calls, fail_first=fail_first))
    task = Task.make("bowtie", "counted", max_iter=20)
    for change in (before, after):
        if change is not None:
            change(spark, store, sched, calls)
        tid = sched.submit_and_run(task)
    assert len(calls) == 2
    done = store.read_logs(tid)[-1]
    assert done["event"] == "done" and done["reused"] is False
    assert done["version"] == store.dataset_version("bowtie")
    assert done["top_k_size"] == sched.top_k_size == len(Status(store).result(tid))


def test_clique_cyclerank_task_fails_within_a_second(spark, tmp_path):
    """CycleRank on a 13-vertex clique at K=13 (about an hour of search)
    ends FAILED within a second, naming K and the ball's size."""
    store = Datastore(str(tmp_path / "clique"))
    clique = [(a, b) for a in range(13) for b in range(13) if a != b]
    store.save_dataset("k13", DiGraph.from_edges(spark, clique))
    sched = Scheduler(spark, store)
    tid = sched.submit(Task.make("k13", "cyclerank", refs=[0], k=13))
    t0 = time.monotonic()
    assert sched.run(tid) is TaskState.FAILED
    assert time.monotonic() - t0 < 1.0
    error = Status(store).poll(tid)["error"]
    assert error.startswith("RuntimeError: cycle search for k=13 stopped after")
    assert "13 vertices and 156 edges" in error


def test_gateway_upload_returns_the_dataset_version(spark, tmp_path):
    """An upload is read and stored through the gateway; uploading the
    same graph again keeps its version, and a task re-submitted after an
    upload of another graph under the name is computed on the new one."""
    gw = ApiGateway(spark, str(tmp_path / "upload"), top_k_size=10)
    first, other = tmp_path / "g.csv", tmp_path / "h.net"
    first.write_text("".join(f"{s},{d}\n" for s, d in BOWTIE))
    other.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    version = gw.upload("up", str(first))
    assert version == gw.datastore.dataset_version("up")
    assert "up" in gw.datasets()
    assert gw.datastore.load_dataset(spark, "up").num_edges() == len(BOWTIE)
    assert gw.upload("up", str(first)) == version
    task = Task.make("up", "pagerank")
    (tid,) = gw.submit_query_set([task])
    assert len(gw.result(tid)) == 5
    assert gw.upload("up", str(other)) != version
    gw.submit_query_set([task])
    assert sorted(gw.result(tid)["id"]) == [1, 2, 3]
    assert gw.status.logs(tid)[-1]["reused"] is False


# -- state lives in the datastore log -----------------------------------


def test_restarted_gateway_polls_stored_states(spark, tmp_path):
    """A second gateway over the same root sees what the first one ran."""
    root = str(tmp_path / "gw")
    first = ApiGateway(spark, root, top_k_size=3)
    first.datastore.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    done, failed = first.submit_query_set([
        Task.make("bowtie", "cyclerank", refs=[0], k=3),
        Task.make("bowtie", "cyclerank", refs=[0], k=1),
    ])
    second = ApiGateway(spark, root, top_k_size=3)
    poll = second.poll(done)
    assert poll["state"] == "done"
    assert poll["has_result"]
    poll = second.poll(failed)
    assert poll["state"] == "failed"
    assert "k must be >= 2" in poll["error"]


def test_second_scheduler_runs_submitted_task(spark, tmp_path):
    store = Datastore(str(tmp_path / "s2"))
    store.save_dataset("bowtie", DiGraph.from_edges(spark, BOWTIE))
    tid = Scheduler(spark, store).submit(
        Task.make("bowtie", "cyclerank", refs=[0], k=3)
    )
    assert Scheduler(spark, store, top_k_size=3).run(tid) is TaskState.DONE
    assert len(Status(store).result(tid)) == 3


def test_run_unsubmitted_task_raises(spark, tmp_path):
    with pytest.raises(KeyError):
        Scheduler(spark, Datastore(str(tmp_path / "u"))).run("deadbeef")


@pytest.mark.parametrize(
    "task, expected",
    [
        (Task.make("twitter-cop27", "pagerank", alpah=0.85), "alpah"),
        (Task.make("twitter-cop27", "quantumrank"), "unknown algorithm"),
        (Task.make("twitter-cop27", "personalized_pagerank"), "refs"),
    ],
    ids=["misspelt-keyword", "unknown-algorithm", "missing-refs"],
)
def test_bad_task_fails_before_dataset_fetch(spark, tmp_path, count_jobs,
                                            task, expected):
    """Parameters are checked against the algorithm's signature before
    any Spark job, and before the dataset is generated or stored."""
    store = Datastore(str(tmp_path / "fresh"))
    sched = Scheduler(spark, store, dataset_scale=0.1)
    tid = sched.submit(task)
    states = []
    assert count_jobs(lambda: states.append(sched.run(tid))) == 0
    assert states == [TaskState.FAILED]
    poll = Status(store).poll(tid)
    assert poll["state"] == "failed"
    assert expected in poll["error"]
    assert not store.has_dataset("twitter-cop27")


@pytest.mark.parametrize("name", ["", ".", "..", "../logs"])
def test_dataset_name_not_one_path_component_fails(spark, tmp_path, count_jobs,
                                                   name):
    """Such a name aliases ``datasets/`` or leaves it: the task fails on
    the name, before any Spark job."""
    gw = ApiGateway(spark, str(tmp_path / "names"))
    tids = []
    task = Task.make(name, "pagerank")
    assert count_jobs(lambda: tids.extend(gw.submit_query_set([task]))) == 0
    poll = gw.poll(tids[0])
    assert poll["state"] == "failed"
    assert "dataset name" in poll["error"]


# -- the paper's tables run as query sets -------------------------------


def test_table_raises_on_failed_task(spark, monkeypatch):
    """A Table III column comes from a stored result, so a failed task
    raises naming the column and the logged error."""
    def explode(g, refs, **kw):
        raise RuntimeError("cyclerank exploded")

    monkeypatch.setitem(ALGORITHMS, "cyclerank", explode)
    with pytest.raises(RuntimeError) as err:
        table3(spark, scale=0.2)
    assert table3_column("de") in str(err.value)
    assert "cyclerank exploded" in str(err.value)
