"""API gateway: the single entry point the Web UI talks to.

Mediates between the user-facing request cycle and the internal
components (Section III): builds tasks from query sets, routes them to
the scheduler, and serves status/results by permalink id.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.registry import list_datasets
from repro.platform.datastore import Datastore
from repro.platform.executor import Executor
from repro.platform.scheduler import Scheduler
from repro.platform.status import Status
from repro.platform.tasks import Task


class ApiGateway:
    """Facade wiring datastore, scheduler, executor and status."""

    def __init__(
        self,
        spark: SparkSession,
        root: str,
        *,
        top_k_size: int = 100,
        dataset_scale: float = 0.2,
    ) -> None:
        self.datastore = Datastore(root)
        self.executor = Executor()
        self.scheduler = Scheduler(
            spark,
            self.datastore,
            self.executor,
            top_k_size=top_k_size,
            dataset_scale=dataset_scale,
        )
        self.status = Status(self.scheduler, self.datastore)

    def datasets(self) -> list[str]:
        """Datasets offered in the UI dropdown (registry + uploads)."""
        return sorted(set(list_datasets()) | set(self.datastore.list_stored_datasets()))

    def algorithms(self) -> list[str]:
        """Algorithms offered in the UI dropdown."""
        return self.executor.algorithms()

    def submit_query_set(self, queries: list[Task]) -> list[str]:
        """Run a whole query set; returns one permalink id per query."""
        return [self.scheduler.submit_and_run(t) for t in queries]

    def poll(self, tid: str) -> dict:
        """Status snapshot for a permalink id."""
        return self.status.poll(tid)

    def result(self, tid: str) -> pd.DataFrame:
        """Result rows for a permalink id."""
        return self.status.result(tid)
