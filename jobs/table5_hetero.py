"""Table V job: core/truss methods on heterogeneous graphs.

    python jobs/table5_hetero.py [--queries N] [--k K] [--seed S]
"""
from _common import std_parser

from repro.experiments import format_rows, table5


def main() -> None:
    args = std_parser(__doc__).parse_args()
    rows, meta = table5(k=args.k or 4, n_queries=args.queries, seed=args.seed)
    print(f"Table V — heterogeneous graphs, time + relative error ({meta})")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
