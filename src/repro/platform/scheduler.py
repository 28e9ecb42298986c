"""Scheduler: receives tasks, fetches datasets, invokes the executor.

Implements the request cycle of Section III: on ``submit`` the task is
recorded PENDING; ``run`` fetches the dataset from the datastore (or a
registry generator if not yet stored), marks it RUNNING, off-loads the
computation to the :class:`~repro.platform.executor.Executor`, and on
completion writes the top-k result and logs back to the datastore
(DONE), or the failure reason (FAILED). The Status component polls
these states.
"""
from __future__ import annotations

import enum
import time

from pyspark.sql import SparkSession

from repro.core.ranking import top_k
from repro.datasets.registry import load_dataset
from repro.graph.graph import DiGraph
from repro.platform.datastore import Datastore
from repro.platform.executor import PERSONALIZED, Executor
from repro.platform.tasks import Task, task_id


class TaskState(enum.Enum):
    """Lifecycle of a submitted task."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


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
        self._states: dict[str, TaskState] = {}
        self._errors: dict[str, str] = {}
        self._tasks: dict[str, Task] = {}

    # -- dataset fetch --------------------------------------------------

    def _fetch_dataset(self, name: str) -> DiGraph:
        """Load from the datastore, generating (and caching) from the
        registry on first use — the 'fetches the dataset' step."""
        if self.datastore.has_dataset(name):
            return self.datastore.load_dataset(self.spark, name)
        labeled = load_dataset(self.spark, name, scale=self.dataset_scale)
        self.datastore.save_dataset(name, labeled.graph)
        return self.datastore.load_dataset(self.spark, name)

    # -- lifecycle ------------------------------------------------------

    def submit(self, task: Task) -> str:
        """Record a task as PENDING and return its permalink id."""
        tid = task_id(task)
        self._tasks[tid] = task
        self._states[tid] = TaskState.PENDING
        self.datastore.append_log(tid, "submitted", task=task.to_json())
        return tid

    def run(self, tid: str) -> TaskState:
        """Execute a previously submitted task to completion.

        Returns the terminal state (DONE or FAILED); the failure reason
        is available via :meth:`error` and in the logs.
        """
        task = self._tasks[tid]
        self._states[tid] = TaskState.RUNNING
        self.datastore.append_log(tid, "running")
        t0 = time.monotonic()
        try:
            g = self._fetch_dataset(task.dataset)
            params = task.kwargs
            if task.algorithm in PERSONALIZED and "refs" not in params:
                raise ValueError(
                    f"algorithm {task.algorithm!r} requires a 'refs' parameter"
                )
            scores = self.executor.run(g, task.algorithm, **params)
            self.datastore.save_result(tid, top_k(g, scores, self.top_k_size))
        except Exception as exc:  # noqa: BLE001 — terminal state captures all
            self._states[tid] = TaskState.FAILED
            self._errors[tid] = f"{type(exc).__name__}: {exc}"
            self.datastore.append_log(tid, "failed", error=self._errors[tid])
            return self._states[tid]
        self._states[tid] = TaskState.DONE
        self.datastore.append_log(
            tid, "done", seconds=round(time.monotonic() - t0, 3)
        )
        return self._states[tid]

    def submit_and_run(self, task: Task) -> str:
        """Convenience: submit then run; returns the permalink id."""
        tid = self.submit(task)
        self.run(tid)
        return tid

    def state(self, tid: str) -> TaskState | None:
        """Current state of a task id (None if unknown)."""
        return self._states.get(tid)

    def error(self, tid: str) -> str | None:
        """Failure reason for a FAILED task."""
        return self._errors.get(tid)
