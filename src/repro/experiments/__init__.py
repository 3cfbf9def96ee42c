"""Experiment harnesses reproducing the paper's evaluation tables."""
from .harness import (
    MethodRun,
    PreparedDataset,
    exact_ground_truth,
    pick_queries,
    prepare,
    relative_error,
    run_method,
)
from .tables import format_rows, table1, table2, table3, table4, table5, table6

__all__ = [
    "MethodRun",
    "PreparedDataset",
    "exact_ground_truth",
    "format_rows",
    "pick_queries",
    "prepare",
    "relative_error",
    "run_method",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]
