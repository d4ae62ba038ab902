#!/usr/bin/env python3
"""Residuals of the grid-dependent suites as the quadrature is refined.

Useful for picking grid sizes: the inversion and transform residuals should
drop steeply with the node count until they hit the rounding floor of the
reference constants, after which refinement buys nothing.
"""

import argparse
import csv
import sys

from dunklkit.cli import parse_preset
from dunklkit.report import worst
from dunklkit.suites import SuiteConfig, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="z2:1")
    parser.add_argument("--suite", default="inversion", choices=["inversion", "transform", "support"])
    parser.add_argument("--grids", nargs="*", type=int, default=[48, 64, 96, 128, 192, 257])
    parser.add_argument("--out", help="optional CSV destination")
    args = parser.parse_args(argv)

    rs = parse_preset(args.preset)
    rows = []
    print(f"{args.suite} on {args.preset}")
    print(f"{'grid_n':>8} {'max residual':>14} {'status':>8} {'ms':>8}")
    for n in args.grids:
        report = run_suite(SuiteConfig(suite=args.suite, rs=rs, label=args.preset, grid_n=n))
        largest = worst([c.residual for c in report.checks])
        rows.append((n, largest, report.status, report.elapsed_ms))
        print(f"{n:>8} {largest:>14.3e} {report.status:>8} {report.elapsed_ms:>8.0f}")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_n", "max_residual", "status", "elapsed_ms"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0 if all(r[2] == "pass" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
