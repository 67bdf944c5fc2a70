"""Benchmark command for apolarity: one workload, one seed, one result line.

    python3 bench/run.py --workload points --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload runs in its own single-threaded
process with tracing off, as whole passes over its seeded corpus until
--seconds of wall time are used. Before it, four more processes only set
up (import apolarity and build the inputs), so setup_s is a median of five.
With --trace 1 one more process runs a single pass with the layer wrappers
of layers.py installed, and the run reports the per-layer metrics and the
tracing overhead against the first untraced pass instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An item's time is the mean of its calls in
the run. The speed of the machine this was built on switches between a
fast and a slow state every few seconds; the mean weighs both states by
the time spent in them, where a median of two or three calls picks one.
The full record, with every call's time, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("points", "colon", "ideal", "cli")
SETUP_RUNS = 4
DEADLINE_S = 170
TAIL_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _child(args, deadline):
    cmd = [sys.executable, str(HERE / "workload.py")] + [str(a) for a in args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("out of time before " + " ".join(cmd[2:]))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=left,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[2:])} exited {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(s)} samples leave no tail of {TAIL_BEYOND}")
    return s[k], 100.0 * (k + 1) / len(s)


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "apolarity" / "__init__.py").is_file():
        print(f"error: no apolarity sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", args.seed]
    try:
        setups = [_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS)]
        run = _child(base + ["--seconds", args.seconds], deadline)
        traced = None
        if args.trace:
            traced = _child(base + ["--passes", 1, "--trace", 1], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    means = [statistics.fmean(t) for t in run["item_times"]]
    tail_s, tail_pct = tail(means)
    metrics = {
        "items_per_s": len(means) / sum(means),
        "item_p50_s": statistics.median(means),
        "item_tail_s": tail_s,
        "peak_rss_mb": run["rss_mb"],
        "setup_s": statistics.median(setups),
    }
    report = {name: {"value": metrics[name], "unit": unit}
              for name, unit in END_TO_END.items()}
    correct = run["correct"]
    attempted, failed = run["attempted"], run["failed"]
    problems = list(run["problems"])
    if traced is not None:
        sys.path.insert(0, str(HERE))
        import layers
        values = dict(traced["layers"])
        overhead = traced["pass_item_s"][0] - run["pass_item_s"][0]
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / run["pass_item_s"][0]
        report = {name: {"value": values[name], "unit": unit}
                  for name, unit in layers.metric_names()}
        correct = correct and traced["correct"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(means)} items, {run['passes']} passes, "
          f"{attempted} calls, {failed} failed; item_tail_s is "
          f"p{tail_pct:.1f} of {len(means)} item times "
          f"({TAIL_BEYOND} beyond)")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "setup_runs_s": setups,
        "tail_percentile": tail_pct, "run": run, "traced": traced,
        "metrics": report,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
