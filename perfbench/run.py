#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload build-sparse|serve|churn|simulate \
        --seed N --seconds S --trace 0|1 [--smoke]

Configures and builds perfbench/ (which compiles the library from ../src)
into $CARGO_TARGET_DIR, default .bench_build, then runs one workload. The
last line of standard output is the result object; build output goes to
standard error. Exits non-zero, without a result, if the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)


def stop_on_signal(signum, _frame):
    # An exception inside subprocess.run kills and reaps its child, so a
    # terminated run leaves no build or benchmark process behind.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGHUP, stop_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build-sparse", "serve", "churn", "simulate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs everywhere (the benchmark's test)")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Relative, so the server's Unix socket path stays short.
    workdir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"),
                              ROOT)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
