"""Trace how the lowest eigenvalue of -x'' + (r0 - 1.5 s) x sinks through zero.

Writes the sampled eigenvalue positions to a CSV and prints the two index
computations, which must agree.
"""

import argparse

import numpy as np

from maslovflow import odebvp


def family(r0):
    m = 1

    def p(s, t):
        return np.eye(1, dtype=complex)

    def q(s, t):
        return np.zeros((1, 1), dtype=complex)

    def r(s, t):
        return (r0 - 1.5 * s) * np.eye(1, dtype=complex)

    return odebvp.SecondOrderFamily(m=m, T=np.pi, p=p, q=q, r=r)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r0", type=float, default=0.0)
    ap.add_argument("--steps", type=int, default=1024)
    ap.add_argument("--out", default="river.csv")
    args = ap.parse_args()

    fam = family(args.r0)
    opts = odebvp.BvpOpts(steps=args.steps, lambda_window=2.5)
    w_path = odebvp.w_of_r(None, m=1)

    sf, sf_rep = odebvp.sf_bvp(fam, w_path, opts)
    mas, _ = odebvp.mas_bvp(fam, w_path, opts)
    sf_rep.write_trace(args.out)
    print(f"sf={sf} mas={mas} -> {'agree' if sf == mas else 'DISAGREE'}")
    print(f"eigenvalue river written to {args.out} "
          f"({len(sf_rep.samples)} stations)")


if __name__ == "__main__":
    main()
