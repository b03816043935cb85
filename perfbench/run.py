#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload serve_sum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the library and the benchmark driver from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, both
relative to the repository root), runs one workload and prints the
driver's JSON result as the last line of stdout. Build logs and
diagnostics go to stderr; traced runs keep their spans under
perfbench/spans/ in the build directory. --selftest builds and runs the
checker tests.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_sum", "serve_maxmin", "offline_sum")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(targets):
    """Configures once, then builds the targets (incremental)."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            if subprocess.call(["cmake", "-S", HERE, "-B", out,
                                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                               stdout=sys.stderr, stderr=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                           stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_checks_test"])
        sys.exit(subprocess.call([os.path.join(out, "perfbench_checks_test")]))
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench"])
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    print(lines[-1])


if __name__ == "__main__":
    main()
