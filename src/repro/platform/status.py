"""Status component: polls task progress and serves stored results.

A task's state is derived from its JSONL log in the datastore: the last
event decides it (see :data:`~repro.platform.scheduler.STATE_OF_EVENT`).
Nothing is asked of the scheduler, so a Status over a restarted
gateway's store sees every task an earlier one ran.
"""
from __future__ import annotations

import pandas as pd

from repro.platform.datastore import Datastore
from repro.platform.scheduler import STATE_OF_EVENT, TaskState


class Status:
    """Read-only view over the datastore's task logs and results."""

    def __init__(self, datastore: Datastore) -> None:
        self.datastore = datastore

    def poll(self, tid: str) -> dict:
        """One status snapshot for a task id.

        Returns a dict with ``state`` (str, ``"unknown"`` for a task
        with no log), ``has_result`` and, when failed, ``error``.
        """
        events = self.datastore.read_logs(tid)
        state = STATE_OF_EVENT[events[-1]["event"]] if events else None
        out = {
            "task_id": tid,
            "state": state.value if state else "unknown",
            "has_result": self.datastore.has_result(tid),
        }
        if state is TaskState.FAILED:
            out["error"] = events[-1]["error"]
        return out

    def result(self, tid: str) -> pd.DataFrame:
        """The stored result for a completed task (raises if absent)."""
        return self.datastore.load_result(tid)

    def logs(self, tid: str) -> list[dict]:
        """Structured log events for a task."""
        return self.datastore.read_logs(tid)
