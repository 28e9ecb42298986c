"""Oracle-checked gateway benchmark of the relevance platform.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One Python process starts one local
Spark session (all cores, fixed heap and settings, see ``sparkenv``),
sets the workload up three times (``setup_s`` is the session start plus
the median set-up), runs an untimed warm-up against a datastore of its
own, and then submits the workload's query set through
``ApiGateway.submit_query_set`` as a closed loop until ``--seconds`` have
passed (each further query set runs on another prepared datastore, so no
task is repeated by accident). Every stored result is checked against the
NumPy/DFS oracles afterwards, outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one query
set untraced and one traced, with span wrappers around each layer, and
reports the per-layer metrics (self time, Spark jobs and tasks per layer).
Every metric is printed as ``name value unit`` before the last line, which
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A JSON record with the environment, per-task properties and spans is
written to ``perfbench/out/``.
"""
from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TOP_K = 100

E2E = {
    "setup_s": "s",
    "query_set_s": "s",
    "task_p50_s": "s",
    "spark_jobs_per_task": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"pregel.engine.pregel.{m}": u for m, u in (
        ("calls", "count"), ("s", "s"), ("jobs", "count"), ("tasks", "count"),
        ("supersteps", "count"), ("s_per_superstep", "s"),
        ("jobs_per_superstep", "count"), ("converged_share", "ratio"))},
    **{f"pregel.engine.iterate_frontier.{m}": u for m, u in (
        ("calls", "count"), ("s", "s"), ("jobs", "count"), ("tasks", "count"))},
    "core.pagerank.self_s": "s",
    "core.pagerank.self_jobs": "count",
    "core.cyclerank.prune.s": "s",
    "core.cyclerank.prune.jobs": "count",
    "core.cyclerank.prune.tasks": "count",
    "core.cyclerank.enumerate.s": "s",
    "core.cyclerank.enumerate.jobs": "count",
    "core.cyclerank.ball_vertices": "count",
    "core.cyclerank.ball_edges": "count",
    "core.cyclerank.cycles": "count",
    "platform.scheduler.run.self_s": "s",
    "platform.scheduler.run.self_jobs": "count",
    "platform.datastore.load_dataset.s": "s",
    "platform.datastore.load_dataset.jobs": "count",
    "platform.datastore.save_dataset.s": "s",
    "platform.datastore.save_dataset.jobs": "count",
    "platform.datastore.save_dataset.bytes": "bytes",
    "platform.datastore.save_result_s": "s",
    "platform.datastore.load_result_s": "s",
    "platform.datastore.append_log_s": "s",
    "platform.datastore.append_log_calls": "count",
    "datasets.registry.load_dataset.calls": "count",
    "datasets.registry.load_dataset.s": "s",
    "datasets.registry.load_dataset.jobs": "count",
    "graph.formats.read_graph.s": "s",
    "graph.formats.read_graph.jobs": "count",
    "graph.formats.read_graph.edges": "count",
    "graph.graph.count.calls": "count",
    "graph.graph.count.s": "s",
    "graph.graph.count.jobs": "count",
    "spark.jobs": "count",
    "spark.tasks": "count",
    "spark.tasks_per_job": "count",
    "spark.s_per_job": "s",
    "trace.overhead_s": "s",
    # per task class, from the traced run's untraced query set (0 = no such task)
    "pagerank_s": "s",
    "cyclerank_small_ball_s": "s",
    "cyclerank_large_ball_s": "s",
    "ingest_s": "s",
    "permalink_s": "s",
    "tasks.n": "count",
    "small_ball_share": "ratio",
    "large_ball_share": "ratio",
    "permalink_share": "ratio",
    "error_rate": "ratio",
}

#: Per-class latency metric -> the Op class it takes the median of.
CLASS_LATENCY = {
    "pagerank_s": "pagerank",
    "cyclerank_small_ball_s": "small_ball",
    "cyclerank_large_ball_s": "large_ball",
    "ingest_s": "upload",
    "permalink_s": "permalink",
}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Round:
    """One query set run against its own datastore root."""

    def __init__(self, ops, root: str, group: str) -> None:
        self.ops = ops
        self.root = root
        self.group = group
        self.start = self.end = 0.0
        self.jobs: list[int] = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def tasks(self):
        return [op for op in self.ops if op.task is not None]


def run_round(spark, rnd: Round, tracer=None) -> None:
    """Submit the ops one after another, each only after the previous one
    ended (a closed loop with one client)."""
    import repro.graph.formats as formats
    from repro.platform.gateway import ApiGateway
    from repro.platform.tasks import task_id

    import sparkenv
    import workloads

    sc = spark.sparkContext
    sc.setJobGroup(rnd.group, rnd.group)
    gw = ApiGateway(spark, rnd.root, top_k_size=TOP_K, dataset_scale=workloads.SCALE)
    snapshots = os.path.join(rnd.root, "first-results")
    os.makedirs(snapshots, exist_ok=True)
    rnd.start = time.monotonic()
    for op in rnd.ops:
        if op.repeat_of is not None:  # keep the first result for the permalink check
            first = rnd.ops[op.repeat_of].tid
            src = os.path.join(rnd.root, "results", f"{first}.parquet")
            if os.path.exists(src) and not os.path.exists(os.path.join(snapshots, first)):
                shutil.copyfile(src, os.path.join(snapshots, first))
        name = op.dataset if op.task is None else task_id(op.task)
        span = tracer.span("perfbench.op", name) if tracer else contextlib.nullcontext()
        op.start = time.monotonic()
        with span:
            try:
                if op.task is None:
                    g = formats.read_graph(spark, op.path)
                    gw.datastore.save_dataset(op.dataset, g)
                    op.state = "done"
                else:
                    (op.tid,) = gw.submit_query_set([op.task])
                    status = gw.poll(op.tid)
                    op.state, op.error = status["state"], status.get("error")
            except Exception as exc:  # noqa: BLE001 - an op failure is a result
                op.state, op.error = "failed", f"{type(exc).__name__}: {exc}"
        op.end = time.monotonic()
    rnd.end = time.monotonic()
    rnd.jobs = sparkenv.jobs_in_group(sc, rnd.group)


def check_round(rnd: Round, expected_uploads: dict) -> None:
    """Oracle checks of every op; a mismatch marks the op failed."""
    import pandas as pd

    import checks

    edges_of: dict[str, list] = {}
    for op in rnd.ops:
        if op.state != "done":
            op.state = "failed"
            continue
        try:
            edges = edges_of.setdefault(op.dataset, checks.stored_edges(rnd.root, op.dataset))
        except OSError as exc:
            op.state, op.error = "failed", f"dataset not readable: {exc}"
            continue
        if op.task is None:
            want = expected_uploads[op.dataset]
            n_v = len(checks.stored_frame(rnd.root, op.dataset, "vertices"))
            op.props.update(vertices=n_v, edges=len(edges))
            if set(edges) != want or n_v != len({v for e in want for v in e}):
                op.state, op.error = "failed", "upload did not round-trip V/E"
            continue
        result = pd.read_parquet(os.path.join(rnd.root, "results", f"{op.tid}.parquet"))
        params = op.task.kwargs
        if op.repeat_of is not None:
            op.props["permalink_repeat"] = True
            first = os.path.join(rnd.root, "first-results", op.tid)
            if not os.path.exists(first) or not pd.read_parquet(first).equals(result):
                op.state, op.error = "failed", "permalink rows differ from first run"
            continue
        op.props["permalink_repeat"] = False
        if op.task.algorithm == "cyclerank":
            (ref,) = params["refs"]
            k = params["k"]
            op.props["ball_vertices"], op.props["ball_edges"] = checks.ball(edges, ref, k)
            op.props["cycles"] = checks.cycles(edges, ref, k)
        mismatch = checks.check_task(op.task.algorithm, params, edges, result, TOP_K)
        if mismatch:
            op.state, op.error = "failed", f"oracle: {mismatch}"


def end_to_end(rounds, setup_s: float, peak_rss: float) -> dict:
    tasks = [op for r in rounds for op in r.tasks()]
    return {
        "setup_s": setup_s,
        "query_set_s": _median(r.seconds for r in rounds),
        "task_p50_s": _median(op.latency for op in tasks),
        "spark_jobs_per_task": sum(len(r.jobs) for r in rounds) / len(tasks),
        "peak_rss_mb": peak_rss,
    }


def class_metrics(rounds) -> dict:
    ops = [op for r in rounds for op in r.ops]
    tasks = [op for op in ops if op.task is not None]
    fresh_cr = [op for op in tasks if op.cls in ("small_ball", "large_ball")]
    out = {
        name: _median(op.latency for op in ops if op.cls == cls)
        for name, cls in CLASS_LATENCY.items()
    }
    out["tasks.n"] = len(tasks)
    for cls in ("small_ball", "large_ball"):
        out[f"{cls}_share"] = (
            sum(op.cls == cls for op in fresh_cr) / len(fresh_cr) if fresh_cr else 0.0
        )
    out["permalink_share"] = sum(op.cls == "permalink" for op in tasks) / len(tasks)
    out["error_rate"] = sum(op.state != "done" for op in ops) / len(ops)
    return out


def per_layer(sc, tracer, traced: Round, untraced: Round, last_job_before: int):
    """Aggregate the traced round's spans into per-layer metrics."""
    import sparkenv

    self_s = tracer.self_times()
    jobs = {sp.group: sorted(sparkenv.jobs_in_group(sc, sp.group)) for sp in tracer.spans}
    seen_stages: set[int] = set()
    tasks = {g: sparkenv.tasks_of_jobs(sc, ids, seen_stages)
             for g, ids in sorted(jobs.items(), key=lambda kv: kv[1][:1])}
    records = tracer.to_records(self_s, jobs, tasks)

    def agg(name: str, key: str) -> float:
        return sum(r[key] for r in records if r["name"] == name)

    def calls(name: str) -> int:
        return sum(r["name"] == name for r in records)

    all_jobs = sorted(j for ids in jobs.values() for j in ids)
    total = all_jobs[-1] - last_job_before if all_jobs else 0
    attribution_ok = len(set(all_jobs)) == len(all_jobs) == total

    pregel = [r for r in records if r["name"] == "pregel.engine.pregel"]
    steps = sum(r["supersteps"] for r in pregel)
    m = {
        "pregel.engine.pregel.calls": len(pregel),
        "pregel.engine.pregel.s": agg("pregel.engine.pregel", "self_s"),
        "pregel.engine.pregel.jobs": agg("pregel.engine.pregel", "self_jobs"),
        "pregel.engine.pregel.tasks": agg("pregel.engine.pregel", "self_tasks"),
        "pregel.engine.pregel.supersteps": steps,
        "pregel.engine.pregel.converged_share":
            sum(r["converged"] for r in pregel) / len(pregel) if pregel else 0.0,
    }
    m["pregel.engine.pregel.s_per_superstep"] = (
        m["pregel.engine.pregel.s"] / steps if steps else 0.0)
    m["pregel.engine.pregel.jobs_per_superstep"] = (
        m["pregel.engine.pregel.jobs"] / steps if steps else 0.0)
    for name in (
        "pregel.engine.iterate_frontier", "core.cyclerank.prune",
        "core.cyclerank.enumerate", "platform.datastore.load_dataset",
        "platform.datastore.save_dataset", "datasets.registry.load_dataset",
        "graph.formats.read_graph", "graph.graph.count",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = agg(name, "self_s")
        m[f"{name}.jobs"] = agg(name, "self_jobs")
        m[f"{name}.tasks"] = agg(name, "self_tasks")
    m["platform.datastore.save_dataset.bytes"] = agg("platform.datastore.save_dataset", "bytes")
    for name in ("core.pagerank", "platform.scheduler.run"):
        m[f"{name}.self_s"] = agg(name, "self_s")
        m[f"{name}.self_jobs"] = agg(name, "self_jobs")
    for attr in ("save_result", "load_result", "append_log"):
        m[f"platform.datastore.{attr}_s"] = agg(f"platform.datastore.{attr}", "self_s")
    m["platform.datastore.append_log_calls"] = calls("platform.datastore.append_log")
    fresh_cr = [op for op in traced.tasks() if "cycles" in op.props]
    for key in ("ball_vertices", "ball_edges", "cycles"):
        m[f"core.cyclerank.{key}"] = sum(op.props[key] for op in fresh_cr)
    m["graph.formats.read_graph.edges"] = sum(
        op.props.get("edges", 0) for op in traced.ops if op.task is None)
    n_tasks = sum(r["self_tasks"] for r in records)
    m["spark.jobs"] = len(all_jobs)
    m["spark.tasks"] = n_tasks
    m["spark.tasks_per_job"] = n_tasks / len(all_jobs) if all_jobs else 0.0
    m["spark.s_per_job"] = traced.seconds / len(all_jobs) if all_jobs else 0.0
    m["trace.overhead_s"] = traced.seconds - untraced.seconds
    m.update(class_metrics([untraced]))
    # per-task input property: supersteps, from the pregel spans
    by_task: dict[str, int] = {}
    for r in pregel:
        by_task[r["task"]] = by_task.get(r["task"], 0) + r["supersteps"]
    for op in traced.tasks():
        if op.tid in by_task:
            op.props["supersteps"] = by_task[op.tid]
    check = {"span_self_jobs": len(all_jobs), "round_jobs": total,
             "untraced_round_jobs": len(untraced.jobs), "ok": attribution_ok}
    return m, records, check


def _last_job_id(sc, groups) -> int:
    """Highest job id started so far in these groups or in no group."""
    import sparkenv

    return max((j for g in (*groups, None) for j in sparkenv.jobs_in_group(sc, g)),
               default=-1)


def run(spark, args, work: Path) -> dict:
    import sparkenv
    import workloads
    from spans import Tracer

    sc = spark.sparkContext
    session_s = time.monotonic() - T_START
    env = sparkenv.describe(spark)
    sc.setJobGroup("perfbench-prepare", "prepare")
    wl = workloads.WORKLOADS[args.workload](spark, args.seed)

    prepare_s = time.monotonic() - T_START - session_s

    # Set-up, several times; each prepared store serves one query set.
    sc.setJobGroup("perfbench-setup", "setup")
    setup_reps, prepared = [], []
    for i in range(SETUP_REPEATS):
        root, files = str(work / f"store-{i}"), str(work / f"files-{i}")
        t0 = time.monotonic()
        wl.setup(root, files)
        setup_reps.append(time.monotonic() - t0)
        prepared.append((root, wl.plan(files)))
    setup_s = session_s + statistics.median(setup_reps)

    # Untimed warm-up on the first prepared inputs, with its own results store.
    warm = Round([], str(work / "warmup"), "perfbench-warmup")
    if os.path.isdir(stored := os.path.join(prepared[0][0], "datasets")):
        shutil.copytree(stored, os.path.join(warm.root, "datasets"))
    warm.ops = wl.warmup_plan(str(work / "files-0"))
    run_round(spark, warm, None)
    warm_failed = [op.error for op in warm.ops if op.state != "done"]
    expected_uploads = getattr(wl, "expected_uploads", {})

    rounds: list[Round] = []
    t_timed = time.monotonic()
    n_untraced = 1 if args.trace else len(prepared)
    for i, (root, ops) in enumerate(prepared[:n_untraced]):
        if rounds and time.monotonic() - t_timed >= args.seconds:
            break
        rounds.append(Round(ops, root, f"perfbench-round-{i}"))
        run_round(spark, rounds[-1])

    layer, records, trace_check = {}, [], None
    if args.trace:
        root, ops = prepared[1]
        traced = Round(ops, root, "perfbench-round-traced")
        before = _last_job_id(
            sc, ["perfbench-prepare", "perfbench-setup", "perfbench-warmup",
                 *(r.group for r in rounds)])
        tracer = Tracer(sc, traced.group)
        tracer.install()
        try:
            with tracer.span("perfbench.round"):
                run_round(spark, traced, tracer)
        finally:
            tracer.uninstall()
        checked = [*rounds, traced]
    else:
        checked = rounds
    t_check = time.monotonic()
    sc.setJobGroup("perfbench-check", "check")
    for rnd in checked:
        check_round(rnd, expected_uploads)
    if args.trace:
        layer, records, trace_check = per_layer(sc, tracer, traced, rounds[0], before)
    check_s = time.monotonic() - t_check
    metrics = end_to_end(rounds, setup_s, sparkenv.peak_rss_mb())
    if not args.trace:  # printed for reference; the traced run reports them per layer
        metrics.update(class_metrics(rounds))
    ops = [op for r in checked for op in r.ops]
    failed = sum(op.state != "done" for op in ops)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "session_s": session_s,
        "prepare_s": prepare_s,
        "check_s": check_s,
        "setup_reps_s": setup_reps,
        "warmup": {"ops": len(warm.ops), "seconds": warm.seconds, "failed": warm_failed},
        "end_to_end": metrics,
        "per_layer": layer,
        "trace_check": trace_check,
        "rounds": [
            {
                "group": r.group,
                "seconds": r.seconds,
                "jobs": len(r.jobs),
                "ops": [
                    {"cls": op.cls, "dataset": op.dataset,
                     "task": op.task.to_json() if op.task else None,
                     "tid": op.tid, "state": op.state, "error": op.error,
                     "latency_s": op.latency, **op.props}
                    for op in r.ops
                ],
            }
            for r in checked
        ],
        "spans": records,
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and not warm_failed
        and (trace_check is None or trace_check["ok"]),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no platform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sparkenv
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; know "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    spark = sparkenv.start(str(work))
    try:
        out = run(spark, args, work)
    finally:
        sparkenv.stop(spark)
        shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(out, indent=1, default=str))

    wanted = PER_LAYER if args.trace else E2E
    shown = {**out["end_to_end"], **out["per_layer"]}
    print("env", json.dumps(out["env"], sort_keys=True))
    for key, unit in {**E2E, **PER_LAYER}.items():
        if key in shown:
            print(f"{key} {shown[key]} {unit}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": shown[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
