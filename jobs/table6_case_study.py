"""Table VI job: size-bounded SEA case-study round trace.

    python jobs/table6_case_study.py
"""
from repro.experiments import format_rows, table6


def main() -> None:
    rows, meta = table6()
    print(f"Table VI — size-bounded SEA case study on imdb ({meta})")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
