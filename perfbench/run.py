#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload solve_seq --seed 1 --seconds 40 --trace 0

Run from the repository root.  Builds perfbench.exe and ace_serve.exe
with dune (cache disabled, so nothing is written outside the checkout),
then runs the benchmark.  Its standard output is passed through; the
last line is the JSON result.  Build output goes to standard error.
Exits non-zero, without a result, when the checkout does not hold the
repository or the build fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["solve_seq", "serve_inproc"]
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120  # set-up and probes beyond --seconds


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def run(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail(f"{' '.join(cmd)} timed out after {timeout} s")
    except BaseException:
        os.killpg(proc.pid, 9)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a SIGTERM must still stop the build or benchmark process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ["dune-project", "lib", "bin/ace_serve.ml", "bench/seq_core_expected.txt"]:
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a checkout of the repository")

    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/perfbench.exe", "./bin/ace_serve.exe"]
    if run(dune_command() + ["build", "--root", "."] + targets,
           BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        fail("build failed")

    sys.stdout.flush()
    code = run(["_build/default/perfbench/perfbench.exe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               args.seconds + RUN_GRACE_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
