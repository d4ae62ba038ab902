"""Checks that the benchmark's output check and tracer do their job.

    python3 perfbench/selftest.py

Runs two quick cases, then feeds the output check reports that must fail it
(a NaN residual, a check id set aside, a changed body, a raising suite), and
checks that the tracer leaves report bodies and dunklkit's names as it found
them, and that the tracer's audit finds a call the wrappers missed.  Exits 0 when every expectation holds.
"""

import copy
import math
import sys

from passes import OutputCheck, load_dunklkit, outcomes, run_pass
from workloads import EXPECTED_IDS, Case

CASES = [Case("cross-engine", "z2:1"), Case("support", "z2:1")]
MISSED = ["intertwine1d.mass_constant", "intertwine1d.mu_quadrature"]


def failures(*passes):
    check = OutputCheck(EXPECTED_IDS)
    for i, records in enumerate(passes):
        check.add(records, f"pass {i}")
    return check.failed


def main() -> int:
    load_dunklkit()
    _, results = run_pass(CASES, seed=0)
    clean = outcomes(results)

    nan = copy.deepcopy(clean)
    nan[0]["checks"][0][1] = math.nan
    set_aside = copy.deepcopy(clean)
    del set_aside[1]["checks"][0]
    changed = copy.deepcopy(clean)
    changed[0]["digest"] = "0" * 64
    raised = copy.deepcopy(clean)
    raised[1].update(error="AccuracyError()", digest=None, checks=[])

    expectations = {
        "clean passes": failures(clean, clean) == 0,
        "NaN residual fails": failures(nan) > 0,
        "check id set aside fails": failures(set_aside) > 0,
        "changed body fails": failures(clean, changed) > 0,
        "raising suite fails": failures(raised) > 0,
    }

    import dunklkit.intertwine1d
    import dunklkit.kernel
    from tracer import Tracer

    def miss_rebinding():
        # a tracer fault: calls from within dunklkit.intertwine1d of a plain
        # and of a cached function go unwrapped
        for name in MISSED:
            setattr(dunklkit.intertwine1d, name.split(".")[1], tracer.originals[name])
        return run_pass(CASES, 0, tracer)[1]

    modules = [dunklkit.kernel, dunklkit.intertwine1d]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    try:
        pass_s, traced_results = run_pass(CASES, 0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.finish_pass(pass_s)
    audited, missed = tracer.audit(lambda: run_pass(CASES, 0, tracer)[1])
    _, missed_on_purpose = tracer.audit(miss_rebinding)
    expectations["traced bodies equal untraced"] = failures(clean, outcomes(traced_results), outcomes(audited)) == 0
    expectations["names restored"] = all(vars(m)[k] is v for m, names in zip(modules, before) for k, v in names.items())
    expectations["audit finds every call traced"] = not missed
    expectations["audit finds a missed rebinding"] = set(missed_on_purpose) == set(MISSED)
    expectations["V_k_num points counted"] = metrics["intertwine1d.V_k_num.points"] > 0

    for name, ok in expectations.items():
        print(f"{'ok' if ok else 'FAIL':<5} {name}")
    return 0 if all(expectations.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
