"""Benchmark: the full Table I–III reproductions.

One pedantic round each — every run is a complete multi-algorithm Spark
pipeline (~dozens of shuffle rounds), so pytest-benchmark's default
calibration would take hours. Each rendered table is written to
``benchmarks/results/tableN.txt`` (pytest captures stdout, so the
artefact would otherwise be lost) and recorded in EXPERIMENTS.md.
"""
import os

import pytest

from repro.experiments.tables import table1, table2, table3

SCALE = 2.0  # en wikilink ~800 background articles; Amazon ~1000 products
RESULTS = os.path.join(os.path.dirname(__file__), "results")
#: Harness and number of top-5 columns of each table.
TABLES = {"table1": (table1, 5), "table2": (table2, 5), "table3": (table3, 6)}


@pytest.mark.parametrize("name", list(TABLES))
def test_bench_tables(benchmark, spark, name):
    table, n_columns = TABLES[name]
    result = benchmark.pedantic(
        lambda: table(spark, scale=SCALE, seed=0), rounds=1, iterations=1
    )
    text = result.to_text()
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    assert len(result.columns) == n_columns
    assert all(result.columns.values())
