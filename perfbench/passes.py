"""Running one pass of a workload and checking what it reported.

A pass runs every case of a workload once, in order, in this process: each
case starts when the previous verdict is in, as with a user running
``dunkl-kit run`` case after case.  The pass time covers preset parsing and
``run_suite``; the output check runs after the clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/dunklkit`` to benchmark."""


def load_dunklkit():
    """Import dunklkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dunklkit" / "__init__.py").is_file():
        raise MissingSourceError(f"no dunklkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dunklkit
    import dunklkit.cli
    import dunklkit.suites

    if Path(dunklkit.__file__).resolve().parent != SRC / "dunklkit":
        raise MissingSourceError(f"dunklkit was imported from {dunklkit.__file__}, not {SRC}")
    return dunklkit


def run_pass(cases, seed, tracer=None):
    """Run every case once; return (seconds, [(case, report or exception)])."""
    from dunklkit.cli import parse_preset
    from dunklkit.suites import SuiteConfig, run_suite

    def one(case):
        rs = parse_preset(case.preset)
        return run_suite(SuiteConfig(suite=case.suite, rs=rs, label=case.preset,
                                     grid_n=case.grid_n, seed=seed))

    results = []
    gc.collect()  # every pass starts with the same collector state
    start = time.perf_counter()
    for index, case in enumerate(cases):
        try:
            if tracer is None:
                report = one(case)
            else:
                report = tracer.run_case(index, one, case)
        except Exception as exc:  # a raising suite is a failed case, not a crash
            report = exc
        results.append((case, report))
    return time.perf_counter() - start, results


def outcomes(results):
    """Plain records of a pass, small enough to send between processes."""
    out = []
    for case, report in results:
        if isinstance(report, Exception):
            out.append({"case": case.id, "error": repr(report), "digest": None, "checks": []})
            continue
        out.append({
            "case": case.id,
            "error": None,
            "digest": hashlib.sha256(report.body_bytes()).hexdigest(),
            "checks": [[c.id, c.residual, c.tol, c.passed] for c in report.checks],
        })
    return out


def headroom_digits(records) -> float:
    """Mean of log10(tol / residual) over checks with tol > 0 and residual > 0."""
    digits = [
        math.log10(tol / residual)
        for rec in records
        for _, residual, tol, _ in rec["checks"]
        if tol > 0 and math.isfinite(residual) and residual > 0
    ]
    return sum(digits) / len(digits) if digits else 0.0


class OutputCheck:
    """Counts attempted and failed checks over every pass of a run.

    A check fails when the report fails it, when its residual is not finite,
    when its suite raised, or when its id is missing from or foreign to the
    recorded set.  Every report body of a case must also be byte-identical to
    the first one seen in the run: cold, warm, traced and untraced alike.
    """

    def __init__(self, expected_ids):
        self.expected = {case: sorted(ids) for case, ids in expected_ids.items()}
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, records, label):
        for rec in records:
            case = rec["case"]
            expected = self.expected.get(case)
            if expected is None:
                self._fail(1, f"{label} {case}: no recorded check ids")
                continue
            if rec["error"] is not None:
                self._fail(len(expected), f"{label} {case}: raised {rec['error']}")
                continue
            ids = [check[0] for check in rec["checks"]]
            universe = set(expected) | set(ids)
            bad = set(expected).symmetric_difference(ids)
            bad |= {i for i in ids if ids.count(i) > 1}
            if bad:
                self.problems.append(f"{label} {case}: check ids differ from the record: {sorted(bad)}")
            for check_id, residual, tol, passed in rec["checks"]:
                if not passed or not math.isfinite(residual):
                    bad.add(check_id)
                    self.problems.append(
                        f"{label} {case}: {check_id} residual {residual!r} tol {tol!r} pass {passed}"
                    )
            if rec["digest"] != self.reference.setdefault(case, rec["digest"]):
                bad = universe
                self.problems.append(f"{label} {case}: report body differs from the first pass")
            self.attempted += len(universe)
            self.failed += len(bad)

    def _fail(self, count, problem):
        self.attempted += count
        self.failed += count
        self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
