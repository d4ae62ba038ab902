#!/usr/bin/env python3
"""Time to a verdict for dunklkit's verification suites, cold and warm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; dunklkit is imported from its ``src``.  A
workload is a list of ``run_suite`` cases (see ``workloads.py``) run one
after the other by one client in one process, each case starting when the
previous verdict is in.  The seed goes only into ``SuiteConfig.seed``.

With ``--trace 0`` the run measures, untraced:

* ``setup_s``: median over fresh interpreters of the time until dunklkit,
  ``dunklkit.suites`` and ``dunklkit.cli`` are imported;
* ``cold_s``: median over fresh processes of the first pass, every cache empty;
* ``verify_s.p50``: median of the warm passes run in ``--seconds`` seconds;
* ``peak_rss_mb``: peak resident memory of the process running the passes;
* ``headroom_digits``: mean of log10(tol / residual) over the checks.

With ``--trace 1`` the run traces a cold pass and then alternates untraced
and traced warm passes, and reports the per-layer metrics of ``tracer.py``.
A last pass is audited: a profiler counts the calls of every traced function
beside the tracer, and any call the tracer missed fails the run.

Every report of every pass goes through the output check of ``passes.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks, over every pass) and ``metrics``; the
lines before it print every metric with its unit and the environment.  The
exit code is 0 only when every check of every pass is correct, and 2 when the
checkout holds no dunklkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before NumPy loads; fresh workers inherit it.  On a
# two-core Xeon VM a second thread does not shorten a pass (line-spectral:
# 3.0-3.4 s either way) but keeps both cores busy, so every pass would also
# wait on whatever else the second core runs.  An explicit setting in the
# environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from passes import ROOT, MissingSourceError, OutputCheck, headroom_digits, load_dunklkit, outcomes, run_pass
from workloads import EXPECTED_IDS, WORKLOADS

HERE = ROOT / "perfbench"
OUT = HERE / "out"

# Fewest samples behind a median, whatever --seconds says.  Cold samples are
# this process's first pass and one pass in each fresh worker process; every
# fresh process is also a set-up sample.
MIN_WARM = 3
MIN_COLD = 3
MIN_SETUP = 5
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150
# Per-layer metrics taken from the traced cold pass; the others are medians
# over traced warm passes.
COLD_METRICS = {
    "polyexact.intertwine_matrix.misses",
    "polyexact.intertwine_matrix.self_s",
    "polyexact.dunkl_apply.calls",
    "polyexact.self_s",
    "cache.mu_quadrature.hit_frac",
    "cache.default_line_plan.hit_frac",
    "cache.intertwine_matrix.hit_frac",
    "cache.monomial_basis.hit_frac",
}


def spawn_worker(workload, seed, passes):
    """Run cold.py in a fresh interpreter; return (set-up seconds, passes)."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), workload, str(seed), str(passes)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["ready"] - start, doc["passes"]


def median(values):
    """The median; for counts, a count that was measured rather than a mean of two."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def interleave(seconds, begin, kinds, cycle):
    """Take samples of each kind in the order of ``cycle`` until ``seconds`` are spent.

    ``kinds`` maps a kind to (samples, minimum, estimate, run).  A sample is
    skipped when its estimated duration would end the run past ``seconds``,
    unless its kind has fewer samples than its minimum; sampling stops when a
    whole cycle is skipped.  Interleaving spreads every kind over the same
    stretch of time, so a slow spell of the machine touches all of them alike.
    """
    skipped, i = 0, 0
    while skipped < len(cycle):
        samples, minimum, estimate, run = kinds[cycle[i % len(cycle)]]
        i += 1
        if len(samples) >= minimum and time.perf_counter() - begin + estimate() > seconds:
            skipped += 1
            continue
        skipped = 0
        run()


def measure_end_to_end(workload, seed, seconds, check):
    cases = WORKLOADS[workload]
    begin = time.perf_counter()
    cold_s, results = run_pass(cases, seed)
    records = outcomes(results)
    check.add(records, "cold pass")
    cold, warm, setup = [cold_s], [], []

    def warm_pass():
        pass_s, results = run_pass(cases, seed)
        check.add(outcomes(results), f"warm pass {len(warm)}")
        warm.append(pass_s)

    def fresh_process(passes):
        label = f"fresh process {len(setup)}"
        try:
            setup_s, done = spawn_worker(workload, seed, passes)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            raise SystemExit(f"perfbench: {label} failed: {exc}")
        setup.append(setup_s)
        for p in done:
            cold.append(p["pass_s"])
            check.add(p["records"], label)

    def setup_estimate():
        return statistics.median(setup) if setup else 1.0

    interleave(seconds, begin, {
        "warm": (warm, MIN_WARM, lambda: statistics.median(warm) if warm else cold_s, warm_pass),
        "cold": (cold, MIN_COLD, lambda: statistics.median(cold) + setup_estimate(),
                 lambda: fresh_process(1)),
        "setup": (setup, MIN_SETUP, setup_estimate, lambda: fresh_process(0)),
    }, ["warm", "cold", "warm", "cold", "setup"])

    metrics = {
        "setup_s": statistics.median(setup),
        "cold_s": statistics.median(cold),
        "verify_s.p50": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb(),
        "headroom_digits": headroom_digits(records),
    }
    samples = {"setup_s": setup, "cold_s": cold, "verify_s.p50": warm}
    return metrics, samples


def measure_layers(workload, seed, seconds, check):
    from tracer import Tracer

    cases = WORKLOADS[workload]
    tracer = Tracer()
    begin = time.perf_counter()
    plain, traced, warm = [], [], []

    def traced_pass(label):
        tracer.install()
        try:
            pass_s, results = run_pass(cases, seed, tracer)
        finally:
            tracer.uninstall()
        check.add(outcomes(results), label)
        return pass_s, tracer.finish_pass(pass_s)

    def plain_pass():
        pass_s, results = run_pass(cases, seed)
        check.add(outcomes(results), f"untraced warm pass {len(plain)}")
        plain.append(pass_s)

    def traced_warm_pass():
        pass_s, m = traced_pass(f"traced warm pass {len(traced)}")
        traced.append(pass_s)
        warm.append(m)

    cold_s, cold = traced_pass("traced cold pass")
    interleave(seconds, begin, {
        "plain": (plain, MIN_TRACED, lambda: statistics.median(plain) if plain else cold_s, plain_pass),
        "traced": (traced, MIN_TRACED, lambda: statistics.median(traced) if traced else cold_s,
                   traced_warm_pass),
    }, ["plain", "traced"])

    metrics = {name: median([m[name] for m in warm]) for name in warm[0]}
    metrics.update({name: cold[name] for name in COLD_METRICS})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    results, missed = tracer.audit(lambda: run_pass(cases, seed, tracer)[1])
    check.add(outcomes(results), "audited traced pass")
    for name, (calls, spans) in sorted(missed.items()):
        check.problems.append(f"the tracer missed calls of {name}: {calls} calls, {spans} spans")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload}-seed{seed}-spans.npz")
    samples = {"trace.pass_s": traced, "untraced_pass_s": plain}
    return metrics, samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, samples) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var, "default")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {name: len(values) for name, values in samples.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        load_dunklkit()
    except MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    published = spec["per_layer"] if args.trace else spec["end_to_end"]

    check = OutputCheck(EXPECTED_IDS)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, samples = measure(args.workload, args.seed, args.seconds, check)
    env = environment(args, samples)
    correct = check.failed == 0 and not check.problems

    for m in published:
        count = f"  (median of {len(samples[m['name']])})" if m["name"] in samples else ""
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}{count}")
    print(f"{'checks_failed_frac':<36} {check.failed_frac:>16.6g} ratio  ({check.failed} of {check.attempted})")
    for problem in check.problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, "metrics": metrics, "samples": samples,
                   "checks_failed_frac": check.failed_frac, "problems": check.problems},
                  f, indent=1, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in published},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
