#!/usr/bin/env python3
"""Scan excitation degrees of the transformed operator for one (N, r).

Builds the rectangular pencil at each total degree up to --max-degree, solves
it exactly at the given beta, and prints the eigenvalues together with any
closed-form level they equal. Blocks are built in integers from their closed
form, so a scan of N = 9 up to degree 9 takes a second or two.
"""

import argparse

from tcsm.model import derive_params
from tcsm.spectral import H1Operator, spectrum_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--max-degree", type=int, default=6)
    args = ap.parse_args()

    params = derive_params(args.n, args.r, beta=args.beta)
    op = H1Operator.build(params)
    print(f"N={params.n} r={params.r} beta={params.beta} regime={params.regime}")
    for degree in range(1, args.max_degree + 1):
        rep = spectrum_report(op, degree, args.beta)
        values = ", ".join(
            f"{float(v):.6g} (x{m})" for v, m in rep.eigenvalues
        ) or "none"
        print(f"d={degree}: dims {rep.basis_dims[0]}x{rep.basis_dims[1]}  {values}")
        for name, value in sorted(rep.matched_levels.items()):
            print(f"    matches {name} = {float(value):.6g}")


if __name__ == "__main__":
    main()
