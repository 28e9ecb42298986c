"""Tasks and the Task Builder.

A *task* is the paper's triple (dataset, algorithm, parameters); a
*query set* is the list of such triples a user assembles in the task
builder UI (Figure 2). A query set gets a deterministic identifier that
serves as a permalink to retrieve its results later.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Task:
    """One query: run ``algorithm`` on ``dataset`` with ``params``.

    ``params`` values must be JSON-serializable (they are hashed into
    the permalink id).
    """

    dataset: str
    algorithm: str
    params: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(dataset: str, algorithm: str, **params) -> "Task":
        """Build a task from keyword parameters (canonically ordered).

        Raises:
            ValueError: a parameter value cannot be JSON-encoded; the
                message names the parameter.
        """
        for name, value in params.items():
            try:
                json.dumps(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"parameter {name!r} cannot be JSON-encoded: {exc}") from None
        return Task(dataset, algorithm, tuple(sorted(params.items())))

    @property
    def kwargs(self) -> dict:
        """Parameters as a dict."""
        return dict(self.params)

    def to_json(self) -> str:
        """Canonical JSON form (used for hashing and storage)."""
        return json.dumps(
            {
                "dataset": self.dataset,
                "algorithm": self.algorithm,
                "params": dict(self.params),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(s: str) -> "Task":
        """Inverse of :meth:`to_json`."""
        d = json.loads(s)
        return Task.make(d["dataset"], d["algorithm"], **d["params"])


def task_id(task: Task) -> str:
    """Deterministic 12-hex-char permalink id for a task."""
    return hashlib.sha256(task.to_json().encode("utf-8")).hexdigest()[:12]


@dataclass
class TaskBuilder:
    """Accumulates queries into a query set (the Figure 2 widget).

    Supports the UI's operations: add a query, remove one by position
    (the ⊠ button), and empty the whole set (the trash-bin button).
    """

    queries: list[Task] = field(default_factory=list)

    def add(self, dataset: str, algorithm: str, **params) -> Task:
        """Append a query and return it."""
        t = Task.make(dataset, algorithm, **params)
        self.queries.append(t)
        return t

    def remove(self, index: int) -> Task:
        """Remove and return the query at ``index``."""
        return self.queries.pop(index)

    def clear(self) -> None:
        """Empty the query set."""
        self.queries.clear()

    def build(self) -> list[Task]:
        """Snapshot the current query set (the list sent on submit)."""
        return list(self.queries)
