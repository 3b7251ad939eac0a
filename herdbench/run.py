#!/usr/bin/env python3
"""Builds herdbench from the checkout's sources and runs one measurement.

    python3 herdbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  The first call
configures and builds the HERD libraries and the driver under
.bench_build/herdbench (a few minutes); later calls only re-check the build.
Build output goes to standard error; the driver's result line is the last
line of standard output.  See herdbench/README.md.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "herdbench"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"herdbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "herdbench"),
                          "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "herdbench",
                      "-j", jobs])
        for step in steps:
            built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if built.returncode:
                fail("build failed: " + " ".join(step))
    return BUILD / "herdbench"


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "herdbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no HERD sources under {ROOT / 'src'}; run from a checkout", 2)
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be in [1, 120]", 2)

    binary = build()
    workdir = BUILD / "work"
    workdir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(workdir), "--revision", revision()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"herdbench exited with {run.returncode}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
