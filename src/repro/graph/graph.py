"""Directed graph held on the driver.

A :class:`DiGraph` holds a pandas vertex frame ``(id: int64, name: str)``
and a pandas edge frame ``(src: int64, dst: int64)``. All algorithms in
``repro.core`` take a graph and return a pandas frame that carries each
vertex's ``id`` and ``name`` with its score or rank; none uses the RDD
API.

Every graph is built once, on the driver: :meth:`DiGraph.from_edges`
dedups the edges and derives the vertex set in pandas, the upload
readers call it, and a stored graph is loaded from its two parquet
files. On graphs of this size a Spark job costs far more than the work
on the graph (McSherry et al., "Scalability! But at what COST?", HotOS
2015), so the graph never leaves the driver: the Pregel engine runs
every superstep of a power iteration there, in NumPy, CycleRank's BFS
and cycle search run there, in plain Python, and the datastore writes
the two frames with pandas. A task starts no Spark job.

Spark stays the interop boundary: :attr:`DiGraph.vertices` and
:attr:`DiGraph.edges` hand the frames to the graph's session, as two
one-partition DataFrames, the first time a caller asks for them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StringType, StructField, StructType

VERTEX_SCHEMA = StructType(
    [StructField("id", LongType()), StructField("name", StringType())]
)
EDGE_SCHEMA = StructType(
    [StructField("src", LongType()), StructField("dst", LongType())]
)


@dataclass(frozen=True, eq=False)
class DiGraph:
    """A directed graph as two pandas frames, read-only by convention.

    Attributes:
        spark: the session that :attr:`vertices` and :attr:`edges` use.
        vertex_frame: pandas ``id`` (int64) and ``name`` (str). Every
            endpoint in ``edge_frame`` appears here.
        edge_frame: pandas ``src`` and ``dst`` (int64). Edges are
            deduplicated; self-loops are allowed but ignored by all
            cycle-based algorithms (a self-loop is a length-1 cycle and
            CycleRank starts at n=2).
    """

    spark: SparkSession
    vertex_frame: pd.DataFrame
    edge_frame: pd.DataFrame

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_edges(
        spark: SparkSession,
        edges: pd.DataFrame | Iterable[tuple[int, int]],
        names: Mapping[int, str] | None = None,
    ) -> "DiGraph":
        """Build a graph on the driver from an edge list, deriving the
        vertex set; starts no Spark job.

        The edges are deduplicated and the vertex ids are the sorted
        distinct endpoints.

        Args:
            spark: active session.
            edges: a pandas frame with ``src``/``dst`` columns (others are
                ignored) or ``(src, dst)`` pairs.
            names: optional id→name mapping; ids without an entry get
                ``"node_<id>"``.

        Raises:
            ValueError, TypeError: an endpoint cannot be cast to int64.
        """
        e = (
            pd.DataFrame(edges, columns=EDGE_SCHEMA.names)
            .astype("int64")
            .drop_duplicates(ignore_index=True)
        )
        ids = np.unique(e.to_numpy())
        names = names or {}
        v = pd.DataFrame(
            {"id": ids, "name": [str(names.get(i, f"node_{i}")) for i in ids.tolist()]}
        )
        return DiGraph(spark, v, e)

    # -- Spark interop --------------------------------------------------

    @cached_property
    def vertices(self) -> DataFrame:
        """The vertex frame as a one-partition Spark DataFrame."""
        return self.spark.createDataFrame(self.vertex_frame, VERTEX_SCHEMA).coalesce(1)

    @cached_property
    def edges(self) -> DataFrame:
        """The edge frame as a one-partition Spark DataFrame."""
        return self.spark.createDataFrame(self.edge_frame, EDGE_SCHEMA).coalesce(1)

    # -- basic properties ----------------------------------------------

    def num_vertices(self) -> int:
        """Number of distinct vertices."""
        return len(self.vertex_frame)

    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return len(self.edge_frame)
