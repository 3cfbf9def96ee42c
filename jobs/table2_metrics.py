"""Table II job: attribute cohesiveness of every method under 4 metrics.

    python jobs/table2_metrics.py [--queries N] [--k K] [--seed S]
"""
from _common import std_parser

from repro.experiments import format_rows, table2


def main() -> None:
    args = std_parser(__doc__).parse_args()
    rows, meta = table2(k=args.k or 5, n_queries=args.queries, seed=args.seed)
    print(f"Table II — attribute cohesiveness on facebook ({meta})")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
