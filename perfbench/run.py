#!/usr/bin/env python3
"""Build and run the SWAT serving benchmark.

    python3 perfbench/run.py --workload long_doc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ -- and, through the repository's own CMakeLists.txt, the
swat_core library it measures -- in Release mode into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary with the given arguments. Build output goes to stderr; the
last line of stdout is the benchmark's result JSON. With --trace 1 the
Chrome trace of the run is written under <build dir>/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: {' '.join(cmd)}: {err}")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed ({proc.returncode})")


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "-j", jobs,
                 "--target", target], BUILD_TIMEOUT_S)


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(args):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    if args == ["--selftest"]:
        build(build_dir, "perfbench_selftest")
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              check=False).returncode
    build(build_dir, "perfbench")
    cmd = [os.path.join(build_dir, "perfbench")] + args
    if arg_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"),
                                   arg_value(args, "--seed", "0"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
