"""Run the stock boundary-value scenarios and print a one-line verdict each."""

import argparse
import dataclasses

from maslovflow import harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--double", action="store_true",
                    help="double steps/partition before running")
    args = ap.parse_args()

    scens = harness.builtin_scenarios()
    if args.double:
        scens = [dataclasses.replace(sc, opts=harness.doubled_opts(sc.opts))
                 for sc in scens]
    reports = [harness.run_scenario(sc) for sc in scens]
    for rep in reports:
        if rep.error is not None:
            print(f"{rep.name}: ERROR {rep.error}")
            continue
        flag = "agree" if rep.agree else "DISAGREE"
        print(f"{rep.name}: sf={rep.sf} mas={rep.mas} {flag} "
              f"transport={rep.residuals['transport']:.2e} "
              f"({rep.wall_ms:.0f} ms)")
    raise SystemExit(0 if all(r.agree and r.error is None for r in reports)
                     else 1)


if __name__ == "__main__":
    main()
