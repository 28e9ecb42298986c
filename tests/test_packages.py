"""Package layout: a dotted path always names the module itself, and
Spark reads and writes no file of the package."""
import importlib
import inspect
import pathlib
import re

import repro

#: Spark's file I/O: the session's reader and a frame's writer.
SPARK_FILE_IO = re.compile(r"spark\.read|\.write\.")


def test_submodules_are_not_shadowed_by_reexports():
    import repro.core.pagerank as pagerank_mod
    import repro.datasets.wikilink as wikilink_mod

    assert inspect.ismodule(importlib.import_module("repro.core.pagerank"))
    assert inspect.ismodule(pagerank_mod)
    assert inspect.ismodule(wikilink_mod)


def test_no_module_uses_spark_file_io():
    """Every file (datasets, results, logs, uploads) is read and written
    on the driver with pandas or plain Python, so one library owns each
    stored format."""
    root = pathlib.Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{n}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if SPARK_FILE_IO.search(line)
    ]
    assert hits == []
