"""One workload in one process: set up, run whole passes, check, report.

Usage (run.py starts it; it can also be run by hand from the repository
root):

    python3 bench/workload.py --workload points --seed 1 --seconds 15
    python3 bench/workload.py --workload cli --seed 1 --passes 1 --trace 1
    python3 bench/workload.py --workload colon --seed 1 --setup-only

The last line of standard output is one JSON object. Item times are wall
times of the program call alone; checks run outside them, on the first pass
in full and on later passes as a comparison with the first pass's digest.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("fields", "poly", "linalg", "apolar", "bounds", "families",
           "strassen", "parser", "cli")
WORKLOADS = ("points", "colon", "ideal", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="run whole passes until this much wall time is used")
    p.add_argument("--passes", type=int, default=0,
                   help="run exactly this many passes instead")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    ap = types.SimpleNamespace(**{
        m: importlib.import_module(f"apolarity.{m}") for m in MODULES})
    import checks
    corpus = importlib.import_module(f"corpus_{args.workload}")
    items = corpus.build(ap, random.Random(args.seed), args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        tracer.install()

    times = [[] for _ in items]
    digests = [None] * len(items)
    problems = []
    attempted = failed = passes = 0
    pass_item_s = []
    start = time.perf_counter()
    clock = time.perf_counter
    while True:
        in_pass = 0.0
        for k, item in enumerate(items):
            for _ in range(item.reps):
                t = clock()
                error = None
                try:
                    result = item.run()
                except Exception as exc:    # a fault of the program
                    error = exc
                dt = clock() - t
                times[k].append(dt)
                in_pass += dt
                attempted += 1
                if error is not None:
                    failed += 1
                    if passes == 0:
                        print(f"failed: {item.name}: "
                              f"{type(error).__name__}", file=sys.stderr)
                    continue
                try:
                    if digests[k] is None:
                        item.check(result)
                        digests[k] = item.digest(result)
                    elif item.digest(result) != digests[k]:
                        raise checks.CheckFailed("result differs from the "
                                                 "first call")
                except Exception as exc:
                    problems.append(f"{item.name}: {type(exc).__name__}: "
                                    f"{exc}")
        passes += 1
        pass_item_s.append(in_pass)
        if args.passes:
            if passes >= args.passes:
                break
        elif clock() - start >= args.seconds:
            break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:20],
        "names": [item.name for item in items],
        "item_times": times,
        "pass_item_s": pass_item_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
