"""Shared spark-submit plumbing for the jobs."""
from __future__ import annotations

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    """Session for spark-submit runs (tests use the conftest fixture)."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )

