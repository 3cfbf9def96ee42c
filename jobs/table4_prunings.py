"""Table IV job: effect of the pruning strategies on Exact.

    python jobs/table4_prunings.py [--queries N] [--k K] [--seed S]
"""
from _common import std_parser

from repro.experiments import format_rows, table4


def main() -> None:
    p = std_parser(__doc__)
    p.add_argument("--cap", type=int, default=60_000, help="state cap per query")
    args = p.parse_args()
    rows, meta = table4(
        k=args.k or 4, n_queries=args.queries, seed=args.seed, cap=args.cap
    )
    print(f"Table IV — pruning effect on Exact ({meta}; '>' = capped)")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
