"""Package layout: a dotted path always names the module itself, Spark
reads and writes no file of the package, only the datastore reads and
writes parquet, and only the graph's Spark view and the oracle move
frames between pandas and Spark."""
import importlib
import inspect
import pathlib
import re

import repro

#: Spark's file I/O: the session's reader and a frame's writer.
SPARK_FILE_IO = re.compile(r"spark\.read|\.write\.")

#: A frame's crossing between pandas and Spark, either way.
SPARK_ROUND_TRIP = re.compile(r"createDataFrame|toPandas")

#: The modules allowed to cross: the graph's Spark view, and the oracle,
#: which accepts Spark inputs.
ROUND_TRIP_MODULES = {"graph/graph.py", "oracle.py"}

#: A parquet file read or written with pandas.
PARQUET_IO = re.compile(r"read_parquet|to_parquet")


def test_submodules_are_not_shadowed_by_reexports():
    import repro.core.pagerank as pagerank_mod
    import repro.datasets.wikilink as wikilink_mod

    assert inspect.ismodule(importlib.import_module("repro.core.pagerank"))
    assert inspect.ismodule(pagerank_mod)
    assert inspect.ismodule(wikilink_mod)


def _hits(pattern, allowed=frozenset()):
    root = pathlib.Path(repro.__file__).parent
    return [
        f"{path.relative_to(root)}:{n}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in allowed
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_module_uses_spark_file_io():
    """Every file (datasets, results, logs, uploads) is read and written
    on the driver with pandas or plain Python, so one library owns each
    stored format."""
    assert _hits(SPARK_FILE_IO) == []


def test_no_layer_hands_frames_between_pandas_and_spark():
    """The graph stays on the driver: outside the graph's Spark view and
    the oracle, no module hands a frame to Spark or collects one back, so
    no layer brings back a Spark round trip."""
    assert _hits(SPARK_ROUND_TRIP, ROUND_TRIP_MODULES) == []


def test_only_the_datastore_reads_or_writes_parquet():
    """Datasets and results are stored as parquet by the datastore alone,
    so no layer reads a dataset around its in-memory copy or writes one
    that the copy would not see."""
    assert _hits(PARQUET_IO, {"platform/datastore.py"}) == []
