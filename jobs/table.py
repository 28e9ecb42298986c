"""spark-submit entrypoint reproducing Table I, II or III (see EXPERIMENTS.md).

Usage: spark-submit jobs/table.py --table {1,2,3} [--scale 1.0] [--seed 0]
"""
from __future__ import annotations

import argparse

from repro.experiments.tables import table1, table2, table3

from _common import session

TABLES = {1: table1, 2: table2, 3: table3}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--table", type=int, choices=sorted(TABLES), required=True)
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    args = p.parse_args()
    spark = session(f"table{args.table}")
    print(TABLES[args.table](spark, scale=args.scale, seed=args.seed).to_text())
    spark.stop()


if __name__ == "__main__":
    main()
