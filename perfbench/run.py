#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload svc-mixed --seed 7 --seconds 30 --trace 0

Builds the library, `abtd` and the perfbench binary from the checkout's
sources (into `.bench_build/`, or `$CARGO_TARGET_DIR` when set), prints a
`# stamp` line (CPU count, build type, compiler, commit, seed), then runs
the binary. It prints the single JSON result line last. The exit
code is non-zero, with no result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("svc-light", "svc-mixed", "campaign-exact", "campaign-large")
# The first run in a checkout builds; every later run must end well within
# three minutes.
BUILD_RUN_LIMIT_S = 880
RUN_LIMIT_S = 170
# Child processes (compiler included) keep their temporary files inside the
# checkout; main() points TMPDIR into the build directory.
ENV = dict(os.environ)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, env=ENV)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    """Configures once, then lets the build tool bring the binaries up to
    date. Returns (perfbench binary, abtd binary, whether anything built)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    started = time.monotonic()
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_RUN_LIMIT_S)
    binary = os.path.join(build_dir, "perfbench")
    abtd = os.path.join(build_dir, "abt", "abtd")
    before = [os.path.getmtime(p) if os.path.exists(p) else 0 for p in (binary, abtd)]
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench", "abtd",
                "-j", "4"], BUILD_RUN_LIMIT_S)
    after = [os.path.getmtime(p) for p in (binary, abtd)]
    return binary, abtd, before != after, time.monotonic() - started


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_commit(root):
    """The git commit when the checkout is a repository, otherwise a digest
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=ENV)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def stamp(root, build_dir, args):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, env=ENV)
        version = proc.stdout.splitlines()[0] if proc.stdout else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "commit": source_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the benchmark's own tests)")
    args = parser.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "service", "server.hpp"),
                   os.path.join("examples", "abtd.cpp")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a checkout: {needed} is missing")
    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    ENV["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    binary, abtd, built, build_s = build(root, build_dir)
    # Socket paths must stay short: hand the binary a path relative to the
    # checkout root when that is shorter.
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    if len(os.path.relpath(work_dir, root)) < len(work_dir):
        work_dir = os.path.relpath(work_dir, root)

    print("# stamp " + json.dumps(stamp(root, build_dir, args), sort_keys=True))
    print(f"# build: {'rebuilt' if built else 'up to date'} in {build_s:.1f} s")
    sys.stdout.flush()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--abtd", abtd, "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - started)
    proc = subprocess.Popen(cmd, cwd=root, env=ENV, start_new_session=True)
    try:
        code = proc.wait(timeout=max(limit, 10))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run did not finish within {limit:.0f} s")
    if code != 0:
        fail(f"the benchmark binary exited with code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
