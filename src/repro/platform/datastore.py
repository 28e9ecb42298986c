"""Datastore: datasets, results and logs on the local filesystem.

The paper's Datastore "is responsible for storing and managing
datasets [and] provides storage for results and logs". Here every file
is written and read on the driver with pandas/pyarrow; Spark reads and
writes none of them:

- a dataset is two parquet directories (``vertices/``, ``edges/``), one
  file each: the graph's two pandas frames, written as they are, and a
  ``version`` file: the sha256 of the two parquet files, in hex. Loading
  one reads both files into a :class:`DiGraph` on the driver, so a loaded
  graph keeps its frames after its dataset is overwritten, and a graph
  loaded from a directory can be stored to it again. Neither starts a
  Spark job. The version names the graph a task was computed on: storing
  the same frames again gives the same version, any other graph another
  one, and a dataset stored without it has none. A dataset's name is its
  directory under ``datasets/``, so it must be one plain path component;
- a dataset is read from disk once per process. The module keeps one
  write-through map, dataset directory (real path) → (version, vertex
  frame, edge frame): :meth:`Datastore.save_dataset` enters the frames
  it wrote under the version it returns, and
  :meth:`Datastore.load_dataset` serves an entry whose version equals
  the ``version`` file, reading no parquet, and otherwise reads both
  files and enters them. A store by another datastore or process over
  the same directory changes the version, so the next load reads it
  again; a dataset without a version file is read each time and never
  entered. The map holds one entry per dataset directory this process
  stored or loaded, and a re-store replaces it: no size bound, expiry
  or setting is needed for graphs of this size (under 1 MB each). A
  served graph shares the entry's frames, which is safe because a
  graph's frames are read-only;
- results are small top-k frames, stored as single parquet files;
- logs are JSONL, append-only, one file per task.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil

import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.graph import DiGraph

#: The directories of a stored graph's frames, in ``DiGraph`` field order.
_FRAMES = ("vertices", "edges")
#: The file beside them that holds the dataset's version.
_VERSION = "version"

#: Dataset directory (real path) -> (version, vertex frame, edge frame):
#: the frames last stored to or read from it in this process.
_GRAPHS: dict[str, tuple[str, pd.DataFrame, pd.DataFrame]] = {}


class Datastore:
    """Filesystem-backed storage rooted at ``root``."""

    def __init__(self, root: str) -> None:
        self.root = root
        for sub in ("datasets", "results", "logs"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    # -- datasets -------------------------------------------------------

    def _dataset_dir(self, name: str) -> str:
        """Raises ``ValueError`` unless ``name`` is one plain path
        component (``""``, ``.``, ``..`` and ``a/b`` are not)."""
        if name in ("", os.curdir, os.pardir) or os.path.basename(name) != name:
            raise ValueError(f"dataset name {name!r} is not one plain path component")
        return os.path.join(self.root, "datasets", name)

    def save_dataset(self, name: str, g: DiGraph) -> str:
        """Persist a graph's two frames as one vertices and one edges
        parquet file, replacing whatever was stored under ``name``.

        Returns the dataset's version, which is also written to its
        ``version`` file, last: a store cut short leaves no version, and
        no task is served from a result on it. Copies of the frames, as
        a load would read them back, are then entered in the process's
        graph map under that version.
        """
        d = self._dataset_dir(name)
        if os.path.isdir(d):
            shutil.rmtree(d)
        digest = hashlib.sha256()
        frames = (g.vertex_frame, g.edge_frame)
        for sub, frame in zip(_FRAMES, frames):
            data = frame.to_parquet(index=False)
            digest.update(data)
            os.makedirs(os.path.join(d, sub))
            with open(os.path.join(d, sub, "part-0.parquet"), "wb") as fh:
                fh.write(data)
        version = digest.hexdigest()
        with open(os.path.join(d, _VERSION), "w", encoding="ascii") as fh:
            fh.write(version)
        _GRAPHS[os.path.realpath(d)] = (version, *(f.reset_index(drop=True) for f in frames))
        return version

    def dataset_version(self, name: str) -> str | None:
        """The version :meth:`save_dataset` wrote for ``name``, or ``None``
        for a dataset that is not stored or was stored without one."""
        try:
            with open(os.path.join(self._dataset_dir(name), _VERSION), encoding="ascii") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def load_dataset(self, spark: SparkSession, name: str) -> DiGraph:
        """Load a persisted graph into driver memory, as a graph whose
        Spark view uses ``spark``. The vertex frame is the stored one, not
        re-derived from the edges.

        The frames come from the process's graph map when its entry for
        the directory has the version the ``version`` file holds, and
        from the two parquet files otherwise; a versioned read is then
        entered. The version is read before the files, so a store that
        lands between the two reads leaves an entry whose version is
        older than its frames, and the next load reads the files again.

        Raises:
            FileNotFoundError: if the dataset was never saved.
        """
        d = self._dataset_dir(name)
        if not os.path.isdir(d):
            raise FileNotFoundError(f"dataset {name!r} not in datastore")
        key, version = os.path.realpath(d), self.dataset_version(name)
        entry = _GRAPHS.get(key)
        if version is None or entry is None or entry[0] != version:
            entry = (version, *(pd.read_parquet(os.path.join(d, sub)) for sub in _FRAMES))
            if version is not None:
                _GRAPHS[key] = entry
        return DiGraph(spark, *entry[1:])

    def has_dataset(self, name: str) -> bool:
        """Whether a dataset with this name is stored."""
        return os.path.isdir(self._dataset_dir(name))

    def list_stored_datasets(self) -> list[str]:
        """Names of all stored datasets, sorted."""
        return sorted(os.listdir(os.path.join(self.root, "datasets")))

    # -- results --------------------------------------------------------

    def _result_path(self, tid: str) -> str:
        return os.path.join(self.root, "results", f"{tid}.parquet")

    def save_result(self, tid: str, result: pd.DataFrame) -> None:
        """Persist a (small) result frame for a task id."""
        result.to_parquet(self._result_path(tid), index=False)

    def load_result(self, tid: str) -> pd.DataFrame:
        """Load a task's result.

        Raises:
            FileNotFoundError: if no result exists for ``tid``.
        """
        p = self._result_path(tid)
        if not os.path.exists(p):
            raise FileNotFoundError(f"no result for task {tid!r}")
        return pd.read_parquet(p)

    def has_result(self, tid: str) -> bool:
        """Whether a result is stored for ``tid``."""
        return os.path.exists(self._result_path(tid))

    # -- logs -----------------------------------------------------------

    def append_log(self, tid: str, event: str, **fields) -> None:
        """Append one structured log event for a task."""
        p = os.path.join(self.root, "logs", f"{tid}.jsonl")
        with open(p, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"event": event, **fields}, sort_keys=True) + "\n")

    def read_logs(self, tid: str) -> list[dict]:
        """All log events for a task (empty if none)."""
        p = os.path.join(self.root, "logs", f"{tid}.jsonl")
        if not os.path.exists(p):
            return []
        with open(p, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
