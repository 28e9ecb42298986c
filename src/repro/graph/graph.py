"""DataFrame-backed directed graph.

A :class:`DiGraph` pairs a vertex DataFrame ``(id: long, name: string)``
with an edge DataFrame ``(src: long, dst: long)``. All algorithms in
``repro.core`` take a graph and return a pandas frame that carries each
vertex's ``id`` and ``name`` with its score or rank; none uses the RDD
API.

Every graph is built once, on the driver: :meth:`DiGraph.from_edges`
dedups the edges and derives the vertex set in pandas, and
:meth:`DiGraph.from_frames` hands the two frames to Spark, so a
generated, uploaded or stored graph reaches Spark as two one-partition
frames parallelized from the driver, and the first action on it runs no
dedup or join to construct it.

On graphs of this size a Spark job costs far more than the work on the
graph, so an algorithm reads its graph with :func:`collect_graph`, one
Spark job, and computes on the driver: the Pregel engine runs every
superstep of a power iteration there, in NumPy, and CycleRank's BFS and
cycle search run there, in plain Python, over the small ball it prunes
to. That read is the only Spark job of a task; scores never return to
Spark.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

VERTEX_SCHEMA = StructType(
    [StructField("id", LongType()), StructField("name", StringType())]
)
EDGE_SCHEMA = StructType(
    [StructField("src", LongType()), StructField("dst", LongType())]
)


@dataclass(frozen=True)
class DiGraph:
    """A directed graph as two DataFrames.

    Attributes:
        vertices: DataFrame with columns ``id`` (long) and ``name``
            (string). Every endpoint in ``edges`` appears here.
        edges: DataFrame with columns ``src`` and ``dst`` (long). Edges
            are deduplicated; self-loops are allowed but ignored by all
            cycle-based algorithms (a self-loop is a length-1 cycle and
            CycleRank starts at n=2).
    """

    vertices: DataFrame
    edges: DataFrame

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_edges(
        spark: SparkSession,
        edges: pd.DataFrame | Iterable[tuple[int, int]],
        names: Mapping[int, str] | None = None,
    ) -> "DiGraph":
        """Build a graph on the driver from an edge list, deriving the
        vertex set; starts no Spark job.

        The edges are deduplicated, the vertex ids are the sorted distinct
        endpoints, and each frame is one partition (a graph built on the
        driver is small enough for one).

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
        return DiGraph.from_frames(spark, v, e)

    @staticmethod
    def from_frames(
        spark: SparkSession, vertices: pd.DataFrame, edges: pd.DataFrame
    ) -> "DiGraph":
        """Hand a driver-side vertex frame ``(id, name)`` and edge frame
        ``(src, dst)`` to Spark as they are, one partition each; starts no
        Spark job. The frames are copied into the session, so the graph
        does not depend on where they came from."""
        return DiGraph(
            vertices=spark.createDataFrame(vertices, VERTEX_SCHEMA).coalesce(1),
            edges=spark.createDataFrame(edges, EDGE_SCHEMA).coalesce(1),
        )

    # -- basic properties ----------------------------------------------

    def num_vertices(self) -> int:
        """Number of distinct vertices."""
        return self.vertices.count()

    def num_edges(self) -> int:
        """Number of distinct directed edges."""
        return self.edges.count()


def collect_graph(vertices: DataFrame, edges: DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The vertex frame ``(id, name)`` and edge frame ``(src, dst)`` as
    pandas frames with int64 ids, read in one Spark job: their union,
    collected with one ``toPandas`` over Arrow."""
    rows = vertices.select(
        "id", F.col("id").alias("dst"), F.lit(False).alias("edge"), "name"
    ).unionByName(edges.select(F.col("src").alias("id"), "dst", F.lit(True).alias("edge"),
                               F.lit(None).cast("string").alias("name")))
    batch = rows.coalesce(1).toPandas()
    is_edge = batch["edge"].to_numpy(bool)
    v = batch.loc[~is_edge, ["id", "name"]].astype({"id": "int64"})
    e = batch.loc[is_edge, ["id", "dst"]].astype("int64").set_axis(EDGE_SCHEMA.names, axis=1)
    return v.reset_index(drop=True), e.reset_index(drop=True)
