"""Graph file formats supported by the demo's upload feature.

The demo accepts three formats (Section IV-B); we implement a reader for
each over the local filesystem:

- **edgelist CSV**: one ``src,dst`` pair per line, optional header.
- **Pajek** ``.net``: ``*Vertices N`` followed by ``id "name"`` lines,
  then ``*Arcs`` followed by ``src dst`` lines (1-indexed ids), or
  ``*Arcslist`` followed by ``src dst1 dst2 ...`` lines, one arc per
  ``dst``.
- **ASD**: the CycleRank project's own format — a header line
  ``N M`` (vertex and edge counts) followed by ``M`` lines of
  0-indexed ``src dst`` pairs.

Every reader parses its file on the driver (upload files are small by
definition) and builds the graph there with :meth:`DiGraph.from_edges`,
so reading starts no Spark job. A row that does not parse raises
instead of being dropped.

The CSV and Pajek readers parse in one C-level pass: ``pd.read_csv``
for the id columns (per arc section, for Pajek), and one compiled
regex for Pajek's headers and vertex lines. A line reader, which checks
every row as text, stays the definition of both formats: wherever the C
pass refuses a file, or could read it otherwise (a sign, decimal point
or exponent in an id, a quote, a ``%`` inside an arc line, a tab before
a vertex name, non-ASCII digits, an arc list section), the line reader
decides, so a file is accepted, and an error names its line, exactly as
the line reader alone would do. The ASD reader is one ``read_csv`` whose
rows a regex checks first for a decimal point or exponent in an id,
which pandas would cast to an integer.
"""
from __future__ import annotations

import codecs
import csv
import io
import os
import re

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.graph import EDGE_SCHEMA, DiGraph


# -- edgelist CSV -------------------------------------------------------

#: A CSV field that is an integer, as the line reader accepts it.
_INT = re.compile(r"\s*[+-]?\d+\s*")
#: A row whose first or second field has a decimal point or an exponent:
#: pandas casts ``1.0`` and ``1e3`` to int64, the line reader refuses them.
_FLOAT_ID = re.compile(rb"^[^,\n]*[.eE]|^[^,\n]*,[^,\n]*[.eE]", re.M)


def read_edgelist(spark: SparkSession, path: str) -> DiGraph:
    """Read a ``src,dst`` CSV edge list into a DiGraph.

    Columns after the second (a weight, say) are ignored. A first line
    in which neither field is an integer (``src,dst``) is a header.

    Raises:
        ValueError: a row has fewer than two fields or a field that is
            not an integer, or the file has no edge rows.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pairs = _edgelist_frame(data)
    if pairs is None:
        pairs = _edgelist_rows(path, data)
    return DiGraph.from_edges(spark, pairs)


def _edgelist_frame(data: bytes) -> pd.DataFrame | None:
    """The ``(src, dst)`` int64 frame of a CSV file, parsed in one C
    pass, or ``None`` where :func:`_edgelist_rows` must decide: a quote,
    a BOM, a NUL byte or a ``\\r`` outside ``\\r\\n``, a first line the
    header rule cannot read directly, a row pandas refuses, or a
    float-looking id."""
    if (any(c in data for c in (b'"', b"\0", codecs.BOM_UTF8))
            or data.count(b"\r") != data.count(b"\r\n")):
        return None
    first, _, rest = data.partition(b"\n")
    first = first[:-1] if first.endswith(b"\r") else first
    try:
        fields = first.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if len(fields) < 2:
        return None
    header = not any(_INT.fullmatch(f) for f in fields[:2])
    body = rest if header else data
    if any(c in body for c in (b".", b"e", b"E")) and _FLOAT_ID.search(body):
        return None
    try:
        rows = pd.read_csv(io.BytesIO(body), header=None, dtype={0: "int64", 1: "int64"})
    except (ValueError, OverflowError):
        return None
    # The line reader takes the field count from the first row, the header
    # included: a body that counts otherwise is its call.
    if rows.shape[1] != len(fields):
        return None
    return rows.iloc[:, :2].set_axis(EDGE_SCHEMA.names, axis=1)


def _edgelist_rows(path: str, data: bytes) -> pd.DataFrame:
    """Every row of a CSV file checked as text: the ``(src, dst)`` string
    frame, or ``ValueError`` naming the first bad row."""
    rows = pd.read_csv(io.BytesIO(data), header=None, dtype=str, keep_default_na=False)
    if rows.shape[1] < 2:
        raise ValueError(f"edge list {path} is not comma-separated 'src,dst'")
    pairs = rows.iloc[:, :2].set_axis(EDGE_SCHEMA.names, axis=1)
    is_int = pairs.apply(lambda c: c.str.fullmatch(_INT.pattern))
    if not is_int.iloc[0].any():
        pairs, is_int = pairs.iloc[1:], is_int.iloc[1:]
    bad = ~is_int.all(axis=1)
    if bad.any():
        row = ",".join(pairs[bad].iloc[0])
        raise ValueError(f"edge list {path}: row {row!r} is not two integers")
    if pairs.empty:
        raise ValueError(f"no edges found in edge list {path}")
    return pairs


# -- Pajek .net ---------------------------------------------------------

#: A line whose first non-blank character is ``*``: a section header.
_SECTION = re.compile(r"^([^\S\n]*\*.*)$", re.M)
#: A vertex line: an id, then a quoted name, a bare name or nothing.
_VERTEX = re.compile(
    r'^[ \t]*([0-9]+)(?: +(?:"([^"\n]*)"|([^"\s](?:[^"\n]*[^"\s])?)))?[ \t]*$', re.M
)
#: A line that is neither blank nor a ``%`` comment.
_CONTENT = re.compile(r"^[^\S\n]*[^\s%]", re.M)
#: An arc line pandas would read otherwise than the line reader: a ``%``
#: after its start, or a sign, decimal point or exponent in an endpoint.
_ODD_ARC = re.compile(r"^[^\S\n]*(?:[^\s%][^\n]*%|\S*[+.eE]|\S+[^\S\n]+\S*[+.eE])", re.M)
_INT64_MAX = np.iinfo(np.int64).max
#: The headers of arc list sections, whose lines are ``src dst1 dst2 ...``.
_ARC_LISTS = ("*arcslist", "*edgeslist")


def read_pajek(spark: SparkSession, path: str) -> DiGraph:
    """Read a Pajek ``.net`` file (``*Vertices N``, then ``*Arcs`` or
    ``*Arcslist``; ids are 1-indexed, so every id lies in ``1..N``).
    Fields after an arc's two endpoints (a weight, say) are ignored; an
    arc list line ``src dst1 dst2 ...`` is one arc per ``dst``.
    ``*Edges`` and ``*Edgeslist`` read as ``*Arcs`` and ``*Arcslist``.

    Raises:
        ValueError: naming the line, if ``*Vertices`` gives no count, an
            arc comes before it, a vertex line does not start with an id,
            an arc line with two or an arc list line is not two or more
            ids, or an id is not an integer in ``1..N``; or if the file
            has no arcs.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    edges, names = _pajek_frames(text) or _pajek_lines(path, text)
    return DiGraph.from_edges(spark, edges, names)


def _pajek_frames(text: str) -> tuple[pd.DataFrame, dict[int, str]] | None:
    """The arcs and vertex names of a Pajek file, parsed in C passes (one
    ``re`` scan for the headers, one ``findall`` for the vertices, one
    ``read_csv`` per arc section), or ``None`` where :func:`_pajek_lines`
    must decide: any line, header or id this pass does not read exactly
    as that reader does."""
    if "\0" in text:  # pandas ends a field at a NUL byte
        return None
    _, *parts = _SECTION.split(text)
    heads = [h.strip().lower() for h in parts[::2]]
    if (len(heads) < 2 or not heads[0].startswith("*vertices")
            or not all(h.startswith(("*arcs", "*edges")) and not h.startswith(_ARC_LISTS)
                       for h in heads[1:])):
        return None
    count = parts[0].split()
    if len(count) < 2 or not count[1].isdecimal():
        return None
    n = int(count[1])
    rows = _VERTEX.findall(parts[1])
    if len(rows) != len(_CONTENT.findall(parts[1])):
        return None
    names = {}
    for vid, quoted, bare in rows:
        v = int(vid)
        if not 1 <= v <= n:
            return None
        names[v] = quoted or bare or f"node_{v}"
    arcs = []
    for block in parts[3::2]:
        if any(c in block for c in "%+.eE") and _ODD_ARC.search(block):
            return None
        try:
            arcs.append(pd.read_csv(
                io.StringIO(block), sep=r"\s+", header=None, usecols=[0, 1],
                dtype="int64", comment="%", quoting=csv.QUOTE_NONE,
            ))
        except pd.errors.EmptyDataError:  # only blank and comment lines
            continue
        except (ValueError, OverflowError):
            return None
    if not arcs:
        return None
    edges = pd.concat(arcs, ignore_index=True).set_axis(EDGE_SCHEMA.names, axis=1)
    ends = edges.to_numpy()
    if not len(ends) or (ends < 1).any() or (ends > min(n, _INT64_MAX)).any():
        return None
    return edges, names


def _pajek_lines(path: str, text: str) -> tuple[list[tuple[int, int]], dict[int, str]]:
    """A Pajek file checked line by line: its arcs and vertex names, or
    ``ValueError`` naming the first bad line."""
    n: int | None = None
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    section = None
    for lineno, raw in enumerate(text.split("\n"), 1):
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
            elif low.startswith(_ARC_LISTS):
                section = "arc list"
            elif low.startswith(("*arcs", "*edges")):
                section = "arcs"
            elif section == "vertices":
                vid, _, rest = line.partition(" ")
                (v,) = _pajek_ids([vid], n)
                names[v] = rest.strip().strip('"') or f"node_{v}"
            elif section == "arcs":
                src, dst = _pajek_ids(line.split()[:2], n, count=2)
                edges.append((src, dst))
            elif section == "arc list":
                fields = line.split()
                src, *dsts = _pajek_ids(fields, n, count=max(2, len(fields)))
                edges.extend((src, dst) for dst in dsts)
        except ValueError as e:
            raise ValueError(
                f"pajek file {path}, line {lineno} {line!r}: {e}"
            ) from None
    if not edges:
        raise ValueError(f"no arcs found in pajek file {path}")
    return edges, names


def _pajek_ids(fields: list[str], n: int | None, *, count: int = 1) -> list[int]:
    """``fields`` as vertex ids in ``1..n``, at least ``count`` of them,
    else ``ValueError``."""
    if n is None:
        raise ValueError("no '*Vertices N' line before it")
    if len(fields) < count or not all(f.isdecimal() for f in fields):
        raise ValueError(f"expected {count} integer id(s)")
    ids = [int(f) for f in fields]
    if not all(1 <= i <= n for i in ids):
        raise ValueError(f"id outside 1..{n} ('*Vertices {n}')")
    return ids


# -- ASD ----------------------------------------------------------------

#: An ASD arc line with a decimal point or an exponent in its first or
#: second field: pandas casts ``1.0``, ``1.`` and ``1e0`` to int64.
_ASD_FLOAT_ID = re.compile(r"^[^\S\n]*(?:\S*[.eE]|\S+[^\S\n]+\S*[.eE])[^\n]*", re.M)


def read_asd(spark: SparkSession, path: str) -> DiGraph:
    """Read an ASD file: header ``N M`` then M 0-indexed ``src dst`` lines.

    The first two fields of an arc line are its ``src`` and ``dst``;
    fields after them (a weight, say) are ignored.

    Raises:
        ValueError: the header is not ``N M``, an endpoint has a decimal
            point or an exponent (naming the line), the file does not
            hold M arcs, or an endpoint lies outside ``0..N-1``.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"ASD header must be 'N M', got {head!r}")
        n, m = int(head[0]), int(head[1])
        body = fh.read()
    if any(c in body for c in ".eE") and (bad := _ASD_FLOAT_ID.search(body)):
        lineno = body.count("\n", 0, bad.start()) + 2
        raise ValueError(
            f"ASD file {path}, line {lineno} {bad.group().strip()!r}: expected 2 integer ids"
        )
    pdf = pd.read_csv(
        io.StringIO(body), sep=r"\s+", names=["src", "dst"], usecols=[0, 1], dtype="int64",
        header=None,
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
