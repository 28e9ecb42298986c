"""Scheduler: receives tasks, fetches datasets, invokes the executor.

Implements the request cycle of Section III. A task's state is never
held in memory: it is derived from the task's JSONL log in the
datastore (:data:`STATE_OF_EVENT`), so any scheduler or Status over the
same store sees it. ``submit`` logs ``submitted`` with the task JSON
(PENDING). ``run`` reads the task back, logs ``running``, checks the
parameters against the algorithm's signature, fetches the dataset from
the datastore (on first touch a registry generator makes it and it is
stored first, so every task's graph comes from one
``Datastore.load_dataset``, which serves it from memory while the
stored version holds), off-loads the computation to the
:class:`~repro.platform.executor.Executor`, and writes the top-k result
and ``done`` (DONE), or ``failed`` with the reason (FAILED), back to the
datastore. The graph, the scores and the result stay on the driver
throughout, so a task starts no Spark job. A task re-submitted by its permalink whose stored result still holds
(see :meth:`Scheduler.run`) is served from that result and runs nothing.
"""
from __future__ import annotations

import enum
import inspect
import time

from pyspark.sql import SparkSession

from repro.core.ranking import top_k
from repro.datasets.registry import load_dataset
from repro.graph.graph import DiGraph
from repro.platform.datastore import Datastore
from repro.platform.executor import Executor
from repro.platform.tasks import Task, task_id


class TaskState(enum.Enum):
    """Lifecycle of a submitted task."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: The state a task is in after each lifecycle event of its log.
STATE_OF_EVENT = {
    "submitted": TaskState.PENDING,
    "running": TaskState.RUNNING,
    "done": TaskState.DONE,
    "failed": TaskState.FAILED,
}


def _qualified_name(fn) -> str | None:
    """``module.qualname`` of an algorithm's callable, or ``None`` for a
    callable object that has none."""
    name = getattr(fn, "__qualname__", None)
    return name and f"{fn.__module__}.{name}"


class Scheduler:
    """Single-process scheduler over a datastore and an executor."""

    def __init__(
        self,
        spark: SparkSession,
        datastore: Datastore,
        executor: Executor | None = None,
        *,
        top_k_size: int = 100,
        dataset_scale: float = 0.2,
    ) -> None:
        self.spark = spark
        self.datastore = datastore
        self.executor = executor or Executor()
        self.top_k_size = top_k_size
        self.dataset_scale = dataset_scale

    # -- dataset fetch --------------------------------------------------

    def _fetch_dataset(self, name: str) -> tuple[DiGraph, str | None]:
        """The graph and its version — the 'fetches the dataset' step.
        On first touch the registry generates the dataset and it is
        stored; then it is loaded, which the store's write-through entry
        serves from memory. The version is read before the graph, so it
        is never newer than the graph it is recorded with."""
        if not self.datastore.has_dataset(name):
            self.datastore.save_dataset(
                name, load_dataset(self.spark, name, scale=self.dataset_scale).graph)
        version = self.datastore.dataset_version(name)
        return self.datastore.load_dataset(self.spark, name), version

    # -- lifecycle ------------------------------------------------------

    def submit(self, task: Task) -> str:
        """Log a task as submitted (PENDING); return its permalink id."""
        tid = task_id(task)
        self.datastore.append_log(tid, "submitted", task=task.to_json())
        return tid

    def run(self, tid: str) -> TaskState:
        """Execute a submitted task to completion.

        The task is read from its last ``submitted`` log event. An
        unknown algorithm or parameters its signature does not accept
        fail before any dataset is fetched.

        A ``done`` event records what the result was computed from: the
        task, the dataset's version, ``top_k_size`` and the qualified name
        of the algorithm's callable. The task is served from its stored
        result, loading and computing nothing, when its last terminal
        event is ``done``, all four recorded values equal the current
        ones and the result file exists; that ``done`` says ``reused:
        true``. Anything else is computed again, and so is every task on a
        dataset stored without a version or run by a callable object that
        has no qualified name.

        Returns the terminal state (DONE or FAILED); the failure reason
        is in the ``failed`` log event.

        Raises:
            KeyError: ``tid`` was never submitted.
        """
        events = self.datastore.read_logs(tid)
        submitted = [e for e in events if e["event"] == "submitted"]
        if not submitted:
            raise KeyError(tid)
        task = Task.from_json(submitted[-1]["task"])
        ended = [e for e in events if e["event"] in ("done", "failed")]
        self.datastore.append_log(tid, "running")
        t0 = time.monotonic()
        try:
            fn = self.executor.algorithm(task.algorithm)
            inspect.signature(fn).bind(None, **task.kwargs)
            ran = {
                "task": task.to_json(),
                "version": self.datastore.dataset_version(task.dataset),
                "top_k_size": self.top_k_size,
                "algorithm_fn": _qualified_name(fn),
            }
            reused = (
                None not in ran.values()
                and bool(ended) and ended[-1]["event"] == "done"
                and all(ended[-1].get(key) == value for key, value in ran.items())
                and self.datastore.has_result(tid)
            )
            if not reused:
                g, ran["version"] = self._fetch_dataset(task.dataset)
                scores = fn(g, **task.kwargs)
                self.datastore.save_result(tid, top_k(scores, self.top_k_size))
        except Exception as exc:  # noqa: BLE001 — terminal state captures all
            self.datastore.append_log(
                tid, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            return TaskState.FAILED
        self.datastore.append_log(
            tid, "done", seconds=round(time.monotonic() - t0, 3), reused=reused, **ran
        )
        return TaskState.DONE

    def submit_and_run(self, task: Task) -> str:
        """Convenience: submit then run; returns the permalink id."""
        tid = self.submit(task)
        self.run(tid)
        return tid
