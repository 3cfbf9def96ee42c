"""Shared plumbing for the jobs.

Each job runs one table harness (or one SEA query) and prints the
result. Only the jobs that run Spark dataflows — Table I's degree
statistics and the Spark SEA query — build a local SparkSession,
configured like the test fixture: broadcast joins disabled so the
shuffle paths are the ones exercised, and no console progress bars in
the job log.
"""
import argparse

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--queries", type=int, default=5, help="queries per dataset")
    p.add_argument("--k", type=int, default=None, help="community parameter k")
    p.add_argument("--seed", type=int, default=3, help="query-selection seed")
    return p
