#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--out FILE]

Run from the repository root. On first use it builds the simulator
libraries and the benchmark driver from source into .bench_build/
(CMake, RelWithDebInfo); later runs rebuild incrementally. It then runs
the driver in its own process, checks the driver's result, stamps it
with the host and build fingerprint, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.
--out also writes the full record (fingerprint, simulated-statistics
digest, result) to FILE, for compare.py.

Exit status: 0 for a correct result, 1 for an incorrect one, 2 when no
result could be produced (bad arguments, no sources, build failure).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "restbench")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the driver; all build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "restbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_digest():
    """sha256 over the simulator and benchmark sources, path-sorted."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_state():
    """(commit, dirty) of the checkout, or ("none", None) outside git."""
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = head.stdout.split()
        # A checkout nested in some other repository is not a git one.
        if head.returncode != 0 or len(lines) != 2 or \
                os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return "none", None
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "perfbench"], capture_output=True, text=True, timeout=30)
        return lines[1], bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "none", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    commit, dirty = git_state()
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
    }


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="test-sized workloads")
    ap.add_argument("--out", help="also write the full record here")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", os.path.join(
               BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 140)
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("driver exited %d without a result" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    problems = []
    expected = expected_metrics(args.trace)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and printed != expected:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mis-united %s" % (
                            sorted(set(expected) - set(printed)),
                            sorted(k for k in printed
                                   if expected.get(k) != printed[k])))
    if any(v["value"] is None for v in result["metrics"].values()):
        problems.append("a metric has no value")
    for p in problems:
        print("run.py: " + p, file=sys.stderr)
    result["correct"] = bool(result["correct"]) and not problems

    fp = fingerprint(result.get("build", {}))
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("driver wall time: %.1f s" % (time.monotonic() - started))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tiny": args.tiny, "fingerprint": fp,
                  "digest": result.get("digest"), "result":
                  {k: result[k] for k in RESULT_KEYS}}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({k: result[k] for k in RESULT_KEYS}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
