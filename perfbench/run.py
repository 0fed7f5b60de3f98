#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

Builds perfbench/ (which builds the library from the checkout's sources) in
Release under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload. The binary's standard output passes through unchanged: its last
line is the JSON result. Build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true", help="test size (benchmark self-tests)")
    args = ap.parse_args()

    # The benchmark builds the library from this checkout's sources.
    for need in ("CMakeLists.txt", os.path.join("src", "api", "registry.h"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.isfile(need):
            fail(f"run from the root of a repository checkout ({need} not found)")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--git-sha", git_sha(),
           "--trace-dir", os.path.join(build_root, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    child = subprocess.Popen(cmd)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
