"""A fresh process that imports dunklkit and runs cold passes of a workload.

    python3 perfbench/cold.py WORKLOAD SEED PASSES

It prints one JSON line: the wall-clock time at which dunklkit, its suites
and its command line were imported, and for each pass its time and its
report records.  With PASSES 0 it only imports, which is a set-up sample.
"""

import sys
import time

from passes import load_dunklkit

load_dunklkit()
READY = time.time()

import json  # noqa: E402  (after the timed imports)

from passes import outcomes, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    passes = []
    for _ in range(count):
        pass_s, results = run_pass(WORKLOADS[workload], seed)
        passes.append({"pass_s": pass_s, "records": outcomes(results)})
    print(json.dumps({"ready": READY, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
