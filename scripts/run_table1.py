#!/usr/bin/env python3
"""Reproduce the ground-energy table and adjudicate any conflicting row.

For each (N, r) row the closed-form coefficient N*(r(r+1)/2 + k(k+1)/6) is
compared against the published value; on disagreement the sampled local-energy
oracle decides which number is the actual eigenvalue.
"""

import argparse

from tcsm.oracle import run_table1_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rows = run_table1_rows(samples=args.samples, seed=args.seed)
    print(f"{'N':>3} {'r':>3} {'published':>10} {'formula':>8}  verdict")
    for row in rows:
        line = f"{row['N']:>3} {row['r']:>3} {row['published']:>10} {row['formula']:>8}  {row['verdict']}"
        if row["verdict"] == "conflict":
            line += (
                f"  (oracle: {row['oracle_energy_reduced']:.9f}"
                f" rel.stddev {row['oracle_relative_stddev']:.1e},"
                f" formula {'confirmed' if row['oracle_confirms_formula'] else 'REFUTED'})"
            )
        print(line)


if __name__ == "__main__":
    main()
