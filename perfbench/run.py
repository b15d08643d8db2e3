#!/usr/bin/env python3
"""Build lalrgen and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

Workloads: verdict, conflicts, generate, serve (see perfbench/README.md).
The build goes to $CARGO_TARGET_DIR (default .bench_build); counts, span
traces and the serve daemon's socket and store go to .perfbench. The last
line of standard output is the JSON result; exit status 0 means the run
finished (the result says whether its outputs were correct).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["verdict", "conflicts", "generate", "serve"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve workload's daemon included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no lalrgen sources here; run from the repository root",
              file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Outside an opam environment dune is not on PATH; opam can supply it.
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") \
        else ["opam", "exec", "--", "dune"]
    status = run_group(
        dune + ["build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "-j", "2",
         "./perfbench/perfbench.exe", "./bin/lalrgen.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    lalrgen = os.path.join(build_dir, "default", "bin", "lalrgen.exe")
    sys.stdout.flush()
    return run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--lalrgen", lalrgen, "--dir", ".perfbench"],
        RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
