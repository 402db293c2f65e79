#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload mc-multilevel --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run configures and builds the
library, the mcx_serve daemon and the benchmark driver (mcx_perf) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build. The driver's report goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is non-zero when the build fails, the driver fails, or any correctness
check fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["mc-multilevel", "mc-twolevel-mixed", "serve-open-loop"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then bring mcx_perf and mcx_serve up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry the configure next time
            return False
    cmd = ["cmake", "--build", bdir, "--target", "mcx_perf", "mcx_serve", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def reap_group(pgid):
    """Kill whatever is left of the driver's process group (a daemon
    orphaned by a crashed driver) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1
    perf = os.path.join(bdir, "mcx_perf")
    serve = os.path.join(bdir, "mcx", "mcx_serve")
    if not (os.access(perf, os.X_OK) and os.access(serve, os.X_OK)):
        log("build produced no mcx_perf / mcx_serve")
        return 1

    # Unix socket paths are short: keep the work directory relative.
    work = os.path.relpath(os.path.join(bdir, f"run-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.abspath(perf), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.abspath(serve), "--work-dir", work]
    # Own process group: a timeout takes the daemon child down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1
    finally:
        reap_group(proc.pid)
        # Keep the latest trace and daemon log; drop the socket directory.
        for name in os.listdir(work):
            if name.startswith("trace-") or name.endswith(".log"):
                os.replace(os.path.join(work, name), os.path.join(bdir, name))
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(out)
        log(f"mcx_perf exited {proc.returncode} without a result line")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
