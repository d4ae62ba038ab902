#!/usr/bin/env python3
"""Sweep every verification suite over the stock presets and print a table.

Combinations a suite does not support (product systems for the line-only
suites, fractional multiplicities for the distribution pairings) are listed
as skipped rather than failed.  Exits nonzero if any executed check fails.

Each row ends with the first 12 hex digits of the sha256 of the report body
and the wall time.  The body leaves out timing, so two checkouts give the
same reports exactly when their tables differ only in the times:

    diff <(python3 scripts/run_all_suites.py | sed -E 's/ +[0-9]+ ms$//') \
         <(cd ../other && python3 scripts/run_all_suites.py | sed -E 's/ +[0-9]+ ms$//')
"""

import argparse
import hashlib
import sys

from dunklkit.cli import parse_preset
from dunklkit.errors import UnsupportedCaseError
from dunklkit.report import worst
from dunklkit.suites import SuiteConfig, run_suite, suite_names

DEFAULT_PRESETS = ["z2:1/2", "z2:1", "z2:2", "z2:7/3", "z2:0", "z2xz2:1,2"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--presets", nargs="*", default=DEFAULT_PRESETS)
    parser.add_argument("--suites", nargs="*", default=suite_names())
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    width = max(len(s) for s in args.suites) + 2
    failures = 0
    for preset in args.presets:
        rs = parse_preset(preset)
        print(f"\n== {preset} ==")
        for suite in args.suites:
            try:
                report = run_suite(SuiteConfig(suite=suite, rs=rs, label=preset, seed=args.seed))
            except UnsupportedCaseError as exc:
                print(f"  {suite:<{width}} skip   ({exc})")
                continue
            largest = worst([c.residual for c in report.checks])
            mark = "ok" if report.all_passed else "FAIL"
            print(
                f"  {suite:<{width}} {mark:<6} max residual {largest:.3e}  "
                f"{len(report.checks)} checks  body {hashlib.sha256(report.body_bytes()).hexdigest()[:12]}  "
                f"{report.elapsed_ms:.0f} ms"
            )
            if not report.all_passed:
                failures += 1
                for c in report.checks:
                    if not c.passed:
                        print(f"      failed {c.id}: residual {c.residual:.3e} > tol {c.tol:.1e}")
    if failures:
        print(f"\n{failures} suite run(s) failed", file=sys.stderr)
        return 1
    print("\nall executed suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
