"""Summarize the runs in ``perfbench/out`` into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

For each workload it records every end-to-end metric's median and quartiles
over the untraced runs found there (one per seed), the per-layer metrics of
the traced runs (median over runs) and the environment the runs stamped.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted((HERE / "out").glob("*-trace[01].json")):
        with open(path) as f:
            doc = json.load(f)
        runs[doc["env"]["workload"]][doc["env"]["trace"]].append(doc)

    baseline = {}
    for workload, by_trace in sorted(runs.items()):
        plain, traced = by_trace[0], by_trace[1]
        env = {k: v for k, v in (plain or traced)[0]["env"].items() if k not in ("seed", "samples")}
        entry = {"env": env, "seeds": sorted(d["env"]["seed"] for d in plain), "end_to_end": {},
                 "traced_seeds": sorted(d["env"]["seed"] for d in traced), "per_layer": {}}
        for m in spec["end_to_end"]:
            values = [d["metrics"][m["name"]] for d in plain]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None, "runs": len(values),
            }
        for m in spec["per_layer"]:
            values = [d["metrics"][m["name"]] for d in traced]
            if values:
                entry["per_layer"][m["name"]] = {"unit": m["unit"], "value": statistics.median(values)}
        baseline[workload] = entry
    with open(HERE / "baseline.json", "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
