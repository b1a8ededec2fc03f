#!/usr/bin/env python3
"""Builds and runs the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built as an optimised
(Release) binary from perfbench/CMakeLists.txt into $CARGO_TARGET_DIR
(default .bench_build) under the root, then run with the given arguments;
its output is passed through, so the last stdout line is the JSON result.
Traced runs write a Chrome trace-event file next to the build. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("storm_fleet", "facility_week", "firehose")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def git_stamp():
    """Commit id plus a -dirty suffix, or 'unknown' outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def run_binary(binary, argv, capture=False):
    cmd = [binary] + argv
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    return subprocess.run(cmd, check=False)


def parse_output(stdout):
    lines = stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("outcome_digest ")), None)
    result = json.loads(lines[-1]) if lines else None
    return digest, result


def self_test(binary, commit):
    """Tiny-size run of every workload: checks pass, digests agree across
    thread counts and traced/untraced, and a corrupted oracle is caught."""
    failures = []

    def run(workload, *extra):
        argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--size", "tiny",
                "--commit", commit] + list(extra)
        proc = run_binary(binary, argv, capture=True)
        digest, result = parse_output(proc.stdout)
        return proc.returncode, digest, result

    for w in WORKLOADS:
        digests = {}
        for threads in ("1", "2", "4"):
            code, digest, result = run(w, "--trace", "0", "--threads", threads)
            if code != 0 or not result or not result["correct"] or result["failed"] != 0:
                failures.append(f"{w}: checks failed at {threads} threads")
            digests[threads] = digest
        if len(set(digests.values())) != 1:
            failures.append(f"{w}: outcome_digest differs across thread counts: {digests}")
        trace_file = os.path.join(build_dir(), f"selftest-{w}.trace.json")
        code, digest, result = run(w, "--trace", "1", "--trace-out", trace_file)
        if code != 0 or not result or not result["correct"]:
            failures.append(f"{w}: traced run failed")
        if digest != digests["1"]:
            failures.append(f"{w}: traced digest {digest} != untraced {digests['1']}")
        code, digest, result = run(w, "--trace", "0", "--corrupt-oracle")
        if code == 0 or not result or result["failed"] == 0:
            failures.append(f"{w}: a corrupted oracle answer was not detected")
        print(f"self-test {w}: digest {digests['1']} "
              f"({'ok' if not any(f.startswith(w) for f in failures) else 'FAILED'})")
    for f in failures:
        print("SELF-TEST FAILED: " + f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    commit = git_stamp()
    if args.self_test:
        return self_test(binary, commit)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", args.trace, "--commit", commit]
    if args.threads:
        argv += ["--threads", str(args.threads)]
    if args.trace == "1":
        argv += ["--trace-out",
                 os.path.join(build_dir(), f"{args.workload}-seed{args.seed}.trace.json")]
    sys.stdout.flush()
    return run_binary(binary, argv).returncode


if __name__ == "__main__":
    sys.exit(main())
