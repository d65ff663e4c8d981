#!/usr/bin/env python3
"""Build the ccal benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs rebuild incrementally.  The workload runs in a process of its own, so
its set-up time and peak memory belong to it alone.  Scratch files (the
certificate stores, the certd socket, span traces) go to .bench_run/.

The last line of standard output is the JSON result; the lines before it
are the human-readable report.  Build output goes to standard error.
"""

import argparse
import fcntl
import hashlib
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stack_seq", "explore_wide", "certd_mix", "rt_audit")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

# ClightX modules the library parses from string literals; stack_seq
# parses, typechecks, compiles, optimizes and validates each of them.
MODULE_RE = re.compile(
    r'parseModuleOrDie\(\s*"([A-Za-z0-9_]+)"\s*,\s*R"\((.*?)\)"\s*\)', re.S)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_root):
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", bdir, "--target", "ccal_perfbench",
               "--parallel", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    exe = os.path.join(bdir, "ccal_perfbench")
    if not os.path.isfile(exe):
        fail("build produced no ccal_perfbench")
    return bdir, exe


def extract_modules(dest):
    os.makedirs(dest, exist_ok=True)
    for old in os.listdir(dest):
        os.remove(os.path.join(dest, old))
    count = 0
    for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            if not name.endswith(".cpp"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                text = f.read()
            for m in MODULE_RE.finditer(text):
                with open(os.path.join(dest, m.group(1) + ".cx"), "w",
                          encoding="utf-8") as out:
                    out.write(m.group(2))
                count += 1
    if count == 0:
        fail("no ClightX module sources found under src/")


def source_revision():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min", action="store_true",
                    help="self-test size: one unit of every kind")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark (src/ is missing)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    os.makedirs(build_root, exist_ok=True)
    # Runs started side by side share the build tree: one builds at a time.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        bdir, exe = build(build_root)
        modules = os.path.join(bdir, "modules")
        extract_modules(modules)
    workdir = os.path.join(ROOT, ".bench_run")
    os.makedirs(workdir, exist_ok=True)

    # The library reads these at start-up; the benchmark sets up its own
    # store and tracing, so none may leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCAL_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           # Relative: the certd socket path must stay short.
           "--workdir", os.path.relpath(workdir, ROOT),
           "--modules", modules, "--sha", source_revision()]
    if args.min:
        cmd.append("--min")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
