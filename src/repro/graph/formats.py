"""Graph file formats supported by the demo's upload feature.

The demo accepts three formats (Section IV-B); we implement a reader for
each over the local filesystem:

- **edgelist CSV**: one ``src,dst`` pair per line, optional header.
- **Pajek** ``.net``: ``*Vertices N`` followed by ``id "name"`` lines,
  then ``*Arcs`` followed by ``src dst`` lines (1-indexed ids).
- **ASD**: the CycleRank project's own format — a header line
  ``N M`` (vertex and edge counts) followed by ``M`` lines of
  0-indexed ``src dst`` pairs.

Every reader parses its file on the driver (upload files are small by
definition) and builds the graph there with :meth:`DiGraph.from_edges`,
so reading starts no Spark job. A row that does not parse raises
instead of being dropped.
"""
from __future__ import annotations

import os

import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.graph import EDGE_SCHEMA, DiGraph


# -- edgelist CSV -------------------------------------------------------


def read_edgelist(spark: SparkSession, path: str) -> DiGraph:
    """Read a ``src,dst`` CSV edge list into a DiGraph.

    Columns after the second (a weight, say) are ignored. A first line
    in which neither field is an integer (``src,dst``) is a header.

    Raises:
        ValueError: a row has fewer than two fields or a field that is
            not an integer, or the file has no edge rows.
    """
    rows = pd.read_csv(path, header=None, dtype=str, keep_default_na=False)
    if rows.shape[1] < 2:
        raise ValueError(f"edge list {path} is not comma-separated 'src,dst'")
    pairs = rows.iloc[:, :2].set_axis(EDGE_SCHEMA.names, axis=1)
    is_int = pairs.apply(lambda c: c.str.fullmatch(r"\s*[+-]?\d+\s*"))
    if not is_int.iloc[0].any():
        pairs, is_int = pairs.iloc[1:], is_int.iloc[1:]
    bad = ~is_int.all(axis=1)
    if bad.any():
        row = ",".join(pairs[bad].iloc[0])
        raise ValueError(f"edge list {path}: row {row!r} is not two integers")
    if pairs.empty:
        raise ValueError(f"no edges found in edge list {path}")
    return DiGraph.from_edges(spark, pairs)


# -- Pajek .net ---------------------------------------------------------


def read_pajek(spark: SparkSession, path: str) -> DiGraph:
    """Read a Pajek ``.net`` file (``*Vertices N``, then ``*Arcs``; ids
    are 1-indexed, so every id lies in ``1..N``). Fields after an arc's
    two endpoints (a weight, say) are ignored.

    Raises:
        ValueError: naming the line, if ``*Vertices`` gives no count, an
            arc comes before it, a vertex line does not start with an id
            or an arc line with two, or an id is not an integer in
            ``1..N``; or if the file has no arcs.
    """
    n: int | None = None
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            try:
                if low.startswith("*vertices"):
                    head = line.split()
                    if len(head) < 2 or not head[1].isdecimal():
                        raise ValueError("'*Vertices' needs a vertex count")
                    n, section = int(head[1]), "vertices"
                elif low.startswith(("*arcs", "*edges")):
                    section = "arcs"
                elif section == "vertices":
                    vid, _, rest = line.partition(" ")
                    (v,) = _pajek_ids([vid], n)
                    names[v] = rest.strip().strip('"') or f"node_{v}"
                elif section == "arcs":
                    src, dst = _pajek_ids(line.split()[:2], n, count=2)
                    edges.append((src, dst))
            except ValueError as e:
                raise ValueError(
                    f"pajek file {path}, line {lineno} {line!r}: {e}"
                ) from None
    if not edges:
        raise ValueError(f"no arcs found in pajek file {path}")
    return DiGraph.from_edges(spark, edges, names)


def _pajek_ids(fields: list[str], n: int | None, *, count: int = 1) -> list[int]:
    """``fields`` as ``count`` vertex ids in ``1..n``, else ``ValueError``."""
    if n is None:
        raise ValueError("no '*Vertices N' line before it")
    if len(fields) < count or not all(f.isdecimal() for f in fields):
        raise ValueError(f"expected {count} integer id(s)")
    ids = [int(f) for f in fields]
    if not all(1 <= i <= n for i in ids):
        raise ValueError(f"id outside 1..{n} ('*Vertices {n}')")
    return ids


# -- ASD ----------------------------------------------------------------


def read_asd(spark: SparkSession, path: str) -> DiGraph:
    """Read an ASD file: header ``N M`` then M 0-indexed ``src dst`` lines.

    The first two fields of an arc line are its ``src`` and ``dst``;
    fields after them (a weight, say) are ignored.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"ASD header must be 'N M', got {head!r}")
        n, m = int(head[0]), int(head[1])
        pdf = pd.read_csv(
            fh, sep=r"\s+", names=["src", "dst"], usecols=[0, 1], dtype="int64", header=None
        )
    if len(pdf) != m:
        raise ValueError(f"ASD header declared {m} edges, file has {len(pdf)}")
    ends = pdf[["src", "dst"]].to_numpy()
    if ((ends < 0) | (ends >= n)).any():
        raise ValueError(f"ASD edge endpoint out of range [0, {n})")
    return DiGraph.from_edges(spark, pdf)


# -- dispatch -----------------------------------------------------------

_READERS = {"edgelist": read_edgelist, "pajek": read_pajek, "asd": read_asd}
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
