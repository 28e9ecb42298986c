"""Graph file formats supported by the demo's upload feature.

The demo accepts three formats (Section IV-B); we implement reader and
writer for each over the local filesystem:

- **edgelist CSV**: one ``src,dst`` pair per line, optional header.
- **Pajek** ``.net``: ``*Vertices N`` followed by ``id "name"`` lines,
  then ``*Arcs`` followed by ``src dst`` lines (1-indexed ids).
- **ASD**: the CycleRank project's own format — a header line
  ``N M`` (vertex and edge counts) followed by ``M`` lines of
  0-indexed ``src dst`` pairs.

Readers return a :class:`repro.graph.DiGraph`; parsing is done with
Spark's CSV reader where the format is line-oriented, falling back to a
driver-side parse for Pajek's two-section layout (upload files are
small by definition).
"""
from __future__ import annotations

import os

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.graph.graph import DiGraph

_EDGE_SCHEMA = StructType(
    [StructField("src", LongType()), StructField("dst", LongType())]
)


# -- edgelist CSV -------------------------------------------------------


def read_edgelist(spark: SparkSession, path: str, header: bool = False) -> DiGraph:
    """Read a ``src,dst`` CSV edge list into a DiGraph."""
    df = spark.read.csv(path, schema=_EDGE_SCHEMA, header=header)
    return DiGraph.from_edges(spark, df)


def write_edgelist(g: DiGraph, path: str) -> None:
    """Write ``src,dst`` lines (no header) to a single CSV file."""
    pdf = g.edges.orderBy("src", "dst").toPandas()
    pdf.to_csv(path, index=False, header=False)


# -- Pajek .net ---------------------------------------------------------


def read_pajek(spark: SparkSession, path: str) -> DiGraph:
    """Read a Pajek ``.net`` file (``*Vertices`` then ``*Arcs``, 1-indexed)."""
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if low.startswith("*vertices"):
                section = "vertices"
                continue
            if low.startswith(("*arcs", "*edges")):
                section = "arcs"
                continue
            if section == "vertices":
                vid, _, rest = line.partition(" ")
                name = rest.strip().strip('"')
                names[int(vid)] = name or f"node_{vid}"
            elif section == "arcs":
                parts = line.split()
                edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError(f"no arcs found in pajek file {path}")
    return DiGraph.from_edges(spark, edges, names)


def write_pajek(g: DiGraph, path: str) -> None:
    """Write a Pajek ``.net`` file. Vertex ids are written as-is (must be >=1)."""
    vs = g.vertices.orderBy("id").toPandas()
    es = g.edges.orderBy("src", "dst").toPandas()
    if (vs["id"] < 1).any():
        raise ValueError("pajek requires 1-indexed vertex ids")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"*Vertices {len(vs)}\n")
        for _, row in vs.iterrows():
            fh.write(f'{row["id"]} "{row["name"]}"\n')
        fh.write("*Arcs\n")
        for _, row in es.iterrows():
            fh.write(f'{row["src"]} {row["dst"]}\n')


# -- ASD ----------------------------------------------------------------


def read_asd(spark: SparkSession, path: str) -> DiGraph:
    """Read an ASD file: header ``N M`` then M 0-indexed ``src dst`` lines."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"ASD header must be 'N M', got {head!r}")
        n, m = int(head[0]), int(head[1])
        pdf = pd.read_csv(
            fh, sep=r"\s+", names=["src", "dst"], dtype="int64", header=None
        )
    if len(pdf) != m:
        raise ValueError(f"ASD header declared {m} edges, file has {len(pdf)}")
    ends = pdf[["src", "dst"]].to_numpy()
    if ends.min(initial=0) < 0 or (n and ends.max(initial=0) >= n):
        raise ValueError(f"ASD edge endpoint out of range [0, {n})")
    g = DiGraph.from_edges(spark, spark.createDataFrame(pdf))
    return g


def write_asd(g: DiGraph, path: str) -> None:
    """Write an ASD file (header ``N M``, then 0-indexed edges)."""
    es = g.edges.orderBy("src", "dst").toPandas()
    n = int(g.vertices.agg(F.max("id")).first()[0]) + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(es)}\n")
        for _, row in es.iterrows():
            fh.write(f'{row["src"]} {row["dst"]}\n')


# -- dispatch -----------------------------------------------------------

_READERS = {"edgelist": read_edgelist, "pajek": read_pajek, "asd": read_asd}
_WRITERS = {"edgelist": write_edgelist, "pajek": write_pajek, "asd": write_asd}
_EXTENSIONS = {".csv": "edgelist", ".net": "pajek", ".asd": "asd"}


def detect_format(path: str) -> str:
    """Infer the format from the file extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in _EXTENSIONS:
        raise ValueError(f"unknown graph format for {path!r} (know {_EXTENSIONS})")
    return _EXTENSIONS[ext]


def read_graph(spark: SparkSession, path: str, fmt: str | None = None) -> DiGraph:
    """Read a graph file in any supported format (auto-detect by extension)."""
    return _READERS[fmt or detect_format(path)](spark, path)


def write_graph(g: DiGraph, path: str, fmt: str | None = None) -> None:
    """Write a graph file in any supported format (auto-detect by extension)."""
    _WRITERS[fmt or detect_format(path)](g, path)
