#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at minimum size.

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py --min untraced and traced and
checks that the result line has exactly its four keys, that
every end-to-end and per-layer metric of BENCHMARK.json is printed with its
unit, that the report prints each workload's named end-to-end figures with
their units and failed_frac 0, that explore_wide reports its exact counts,
that the result carries the build stamp, and that one seed reproduces the
exact counts of a stack_seq pass.  Last it checks that the
benchmark refuses to run, printing no result, in a tree that holds only
BENCHMARK.json and the benchmark's own directory.  Exits 1 on any failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMED = {
    "stack_seq": {"stack_pass_s": "s", "stack_pass_tail_s": "s"},
    "explore_wide": {"wide_verdict_s": "s"},
    "certd_mix": {"verify_cold_ms": "ms", "verify_cold_tail_ms": "ms",
                  "verify_warm_ms": "ms", "verify_warm_tail_ms": "ms",
                  "verify_per_s": "1/s"},
    "rt_audit": {"lock_ns": "ns", "contended_mops": "Mop/s",
                 "audited_mops": "Mop/s", "audit_verdict_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction"}
STAMP_KEYS = ("nproc", "build_type", "compiler", "sha", "seed")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--min"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def named_lines(stdout):
    """name -> (value, unit) from the report's '#   name value unit n=' lines."""
    out = {}
    for m in re.finditer(r"^#\s+(\S+)\s+(\S+)\s+(\S+)\s+n=", stdout, re.M):
        out.setdefault(m.group(1), (float(m.group(2)), m.group(3)))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        wl = w["name"]
        for trace in (0, 1):
            tag = "%s trace=%d" % (wl, trace)
            out = run(wl, trace)
            lines = out.stdout.strip().splitlines()
            check(out.returncode == 0,
                  "%s exits %d: %s" % (tag, out.returncode, out.stderr[-500:]))
            if not lines:
                check(False, tag + " printed nothing")
                continue
            res = json.loads(lines[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + " result keys " + str(sorted(res)))
            check(res.get("correct") is True and res.get("failed") == 0
                  and res.get("attempted", 0) >= 1, tag + " not correct")
            metrics = res.get("metrics", {})
            check(list(metrics) == list(specs[trace]),
                  tag + " metric names differ from BENCHMARK.json")
            for name, unit in specs[trace].items():
                m = metrics.get(name, {})
                check(m.get("unit") == unit and
                      isinstance(m.get("value"), (int, float)),
                      "%s %s missing or not in %s" % (tag, name, unit))
            stamp = re.search(r"^# stamp (\{.*\})$", out.stdout, re.M)
            check(stamp is not None and
                  all(k in json.loads(stamp.group(1)) for k in STAMP_KEYS),
                  tag + " has no complete build stamp")
            report = named_lines(out.stdout)
            for name, unit in dict(COMMON, **NAMED[wl]).items():
                check(name in report and report[name][1] == unit,
                      "%s report lacks %s in %s" % (tag, name, unit))
            check(report.get("failed_frac", (1,))[0] == 0,
                  tag + " failed_frac is not 0")
            if wl == "explore_wide" and trace == 1:
                check(metrics.get("machine.schedules", {}).get("value")
                      == 50040, tag + " schedules != 50040")
                check(metrics.get("machine.states", {}).get("value")
                      == 652961, tag + " states != 652961")
            print("ok: " + tag)

    # The same seed must reproduce every exact count of a pass; another
    # seed must run too.
    counts = []
    for seed in ("7", "7", "8"):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "stack_seq", "--seed", seed, "--seconds", "1", "--trace", "1",
             "--min"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=900)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        check(out.returncode == 0 and res["correct"],
              "stack_seq seed %s traced run failed" % seed)
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] == "count"})
    check(counts[0] == counts[1], "stack_seq counts differ for one seed")
    print("ok: stack_seq counts repeat for one seed")

    # Without the library sources next to it the benchmark must refuse.
    bare = os.path.join(ROOT, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bench["workloads"][0]["name"], 0, cwd=bare,
              script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    check(out.returncode != 0 and not out.stdout.strip(),
          "a bare tree must fail without a result (exit %d)" % out.returncode)
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare tree refused" if not failures else
          "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
