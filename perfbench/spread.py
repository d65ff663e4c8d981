#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs every workload once per seed (untraced, one after another) and prints,
for each end-to-end metric, the median of the runs and the distance between
their first and third quartiles as a share of the median -- the figure the
metric's bound in BENCHMARK.json must stay above.  Raw results are appended
to .bench_run/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_run", "spread.jsonl"), "a")
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 wl, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
            line = out.stdout.strip().splitlines()[-1] if out.stdout else ""
            res = json.loads(line) if line.startswith("{") else {}
            log.write(json.dumps({"workload": wl, "seed": seed,
                                  "result": res}) + "\n")
            if out.returncode != 0 or not res.get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (wl, seed,
                                                        out.returncode))
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-13s %-12s n=%-3d median=%-14.6g spread=%6.3f  "
                  "bound=%.2f%s" % (wl, name, len(vals), med, spread,
                                    bounds[name],
                                    "  <-- above bound/3"
                                    if spread > bounds[name] / 3 else ""))
        sys.stdout.flush()
    print("worst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
