"""Command line front end for the verification suites.

Two subcommands:

``run`` executes one named suite against a preset or a root system from a
JSON config file, prints one line per check, optionally writes the report,
and exits 0 only when every check passed (1 on check failure, 2 on usage
errors and unsupported configurations).

``plot`` extracts a named sampled quantity from a report written by ``run``
into a CSV file suitable for any plotting tool.

Examples::

    dunkl-kit run --suite kernel --preset z2:1 --out kernel.json
    dunkl-kit run --suite inversion --preset z2:2 --grid-n 200
    dunkl-kit plot --report kernel.json --quantity kernel-curve --out curve.csv
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .errors import DunklKitError, InvalidArgumentError
from .report import VerificationReport
from .rootsys import RootSystem, axis_product, rank_one, root_system_from_dict
from .suites import SuiteConfig, run_suite, suite_names

_CONFIG_KEYS = {"suite", "preset", "root_system", "grid_n", "tol", "seed", "out", "format"}


def parse_preset(text: str) -> RootSystem:
    """z2:<k> for the line, z2xz2:<k1>,<k2> for the coordinate product."""
    family, _, rest = text.partition(":")
    try:
        if family == "z2":
            if not rest:
                raise InvalidArgumentError("preset z2 needs a multiplicity, e.g. z2:1/2")
            return rank_one(Fraction(rest))
        if family == "z2xz2":
            parts = rest.split(",")
            if len(parts) != 2 or not all(parts):
                raise InvalidArgumentError(
                    "preset z2xz2 needs two multiplicities, e.g. z2xz2:1,2"
                )
            return axis_product(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"cannot parse multiplicities in preset {text!r}") from exc
    raise InvalidArgumentError(
        f"unknown preset family {family!r}; available: z2:<k>, z2xz2:<k1>,<k2>"
    )


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidArgumentError("config file must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise InvalidArgumentError(
            f"unknown config keys {', '.join(unknown)}; allowed: {', '.join(sorted(_CONFIG_KEYS))}"
        )
    return data


def _write_report(report: VerificationReport, path: str, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        return
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "anchor", "residual", "tol", "pass"])
            for c in report.checks:
                writer.writerow([c.id, c.anchor, repr(c.residual), repr(c.tol), c.passed])
        return
    raise InvalidArgumentError(f"unknown report format {fmt!r}; use json or csv")


def _cmd_run(args) -> int:
    file_cfg = _load_config(args.config) if args.config else {}

    def pick(name, default=None):
        cli = getattr(args, name)
        if cli is not None:
            return cli
        return file_cfg.get(name, default)

    suite = pick("suite")
    if suite is None:
        raise InvalidArgumentError("no suite given; pass --suite or put one in the config")
    preset = pick("preset")
    inline = file_cfg.get("root_system")
    if preset is not None and inline is not None and args.preset is None:
        raise InvalidArgumentError("config gives both a preset and an inline root system")
    if preset is not None:
        rs = parse_preset(str(preset))
        label = str(preset)
    elif inline is not None:
        rs = root_system_from_dict(inline)
        label = "config"
    else:
        raise InvalidArgumentError(
            "no root system given; pass --preset or a root_system in the config"
        )

    config = SuiteConfig(
        suite=str(suite),
        rs=rs,
        label=label,
        grid_n=pick("grid_n"),
        tol=pick("tol"),
        seed=pick("seed", 0),
    )
    report = run_suite(config)

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {report.suite}:{c.id}  residual={c.residual:.3e}  tol={c.tol:.1e}")
    print(
        f"suite {report.suite} on {label}: {report.status} "
        f"({len(report.checks)} checks, {report.elapsed_ms:.0f} ms)"
    )

    out = pick("out")
    if out:
        _write_report(report, str(out), str(pick("format", "json")))
        print(f"wrote {out}")
    return 0 if report.all_passed else 1


def _cmd_plot(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        doc = json.load(fh)
    curves = doc.get("curves") or {}
    if args.quantity not in curves:
        have = ", ".join(sorted(curves)) or "none"
        print(
            f"error: report has no sampled quantity {args.quantity!r} (available: {have})",
            file=sys.stderr,
        )
        return 2
    curve = curves[args.quantity]
    rows = curve.get("rows") or []
    if not rows:
        print(f"error: quantity {args.quantity!r} has no data", file=sys.stderr)
        return 2
    sink = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(curve["header"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    finally:
        if args.out:
            sink.close()
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl-kit",
        description="verification suites for rational Dunkl operators on the line and products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one verification suite")
    run_p.add_argument("--suite", choices=suite_names(), help="which suite to run")
    run_p.add_argument("--preset", help="root system preset: z2:<k> or z2xz2:<k1>,<k2>")
    run_p.add_argument("--config", help="JSON file with suite settings and/or a root system")
    run_p.add_argument("--grid-n", dest="grid_n", type=int, help="quadrature size override")
    run_p.add_argument("--tol", type=float, help="tolerance override applied to every check")
    run_p.add_argument("--seed", type=int, help="seed for sampled checks (default 0)")
    run_p.add_argument("--out", help="write the report to this path")
    run_p.add_argument("--format", choices=["json", "csv"], help="report format (default json)")
    run_p.set_defaults(func=_cmd_run)

    plot_p = sub.add_parser("plot", help="extract a sampled quantity from a report as CSV")
    plot_p.add_argument("--report", required=True, help="JSON report written by run")
    plot_p.add_argument(
        "--quantity",
        required=True,
        help="curve name, e.g. kernel-curve (kernel suite) or residual-vs-eps (approx-identity)",
    )
    plot_p.add_argument("--out", help="CSV destination (default stdout)")
    plot_p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DunklKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
